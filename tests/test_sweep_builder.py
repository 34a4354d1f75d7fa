"""Tests for deployment-builder validation."""

import pytest

from repro.core import DeploymentBuilder


class TestDeploymentBuilderValidation:
    def test_gateway_before_central_rejected(self):
        builder = DeploymentBuilder()
        with pytest.raises(ValueError, match="add_central"):
            builder.add_gateway("gw-0")

    def test_device_before_central_rejected(self):
        builder = DeploymentBuilder()
        with pytest.raises(ValueError, match="add_central"):
            builder.add_device("pda")

    def test_double_central_rejected(self):
        builder = DeploymentBuilder()
        builder.add_central("c1")
        with pytest.raises(ValueError, match="already has"):
            builder.add_central("c2")

    def test_build_requires_gateway(self):
        builder = DeploymentBuilder()
        builder.add_central("central")
        with pytest.raises(ValueError, match="gateway"):
            builder.build()

    def test_build_requires_central(self):
        with pytest.raises(ValueError, match="central"):
            DeploymentBuilder().build()

    def test_unregistered_gateway_not_in_list(self):
        builder = DeploymentBuilder()
        builder.add_central("central")
        builder.add_gateway("gw-0")
        builder.add_gateway("gw-hidden", register=False)
        dep = builder.build()
        assert dep.central.gateway_addresses() == ["gw-0"]

    def test_accessors(self):
        builder = DeploymentBuilder()
        builder.add_central("central")
        builder.add_gateway("gw-0")
        builder.add_device("pda")
        dep = builder.build()
        assert dep.gateway("gw-0").address == "gw-0"
        assert dep.platform("pda").device.address == "pda"
        assert dep.mas("gw-0").address == "gw-0"
        assert dep.sim is dep.network.sim
