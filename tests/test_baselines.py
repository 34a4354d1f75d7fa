"""Tests for the comparison approaches (client-server / web / agent-server)."""

import pytest

from repro.experiments.scenario import build_scenario


class TestClientServer:
    def test_runs_all_transactions(self):
        scenario = build_scenario(seed=31)
        runner = scenario.client_server_runner()
        proc = scenario.sim.process(runner.run(scenario.transactions(4)))
        result = scenario.sim.run(until=proc)
        assert result.approach == "client-server"
        assert result.n_transactions == 4
        assert len(result.details) == 4
        assert all(d["status"] == "ok" for d in result.details)

    def test_one_connection_per_bank(self):
        scenario = build_scenario(seed=31)
        runner = scenario.client_server_runner()
        proc = scenario.sim.process(runner.run(scenario.transactions(6)))
        result = scenario.sim.run(until=proc)
        assert result.connections == 2  # two banks, one session each

    def test_connection_time_grows_linearly(self):
        times = []
        for n in (2, 4, 8):
            scenario = build_scenario(seed=31)
            runner = scenario.client_server_runner()
            proc = scenario.sim.process(runner.run(scenario.transactions(n)))
            times.append(scenario.sim.run(until=proc).connection_time)
        assert times[0] < times[1] < times[2]
        # roughly linear: doubling n roughly doubles time (within 40%)
        ratio = times[2] / times[1]
        assert 1.5 < ratio < 2.6

    def test_connected_for_whole_batch(self):
        scenario = build_scenario(seed=31)
        runner = scenario.client_server_runner()
        proc = scenario.sim.process(runner.run(scenario.transactions(5)))
        result = scenario.sim.run(until=proc)
        # connection time ~= completion time (always online)
        assert result.connection_time > 0.8 * result.completion_time

    def test_empty_batch(self):
        scenario = build_scenario(seed=31)
        runner = scenario.client_server_runner()
        proc = scenario.sim.process(runner.run([]))
        result = scenario.sim.run(until=proc)
        assert result.connections == 0
        assert result.details == []


class TestWebBased:
    def test_pages_per_transaction(self):
        from repro.baselines import PAGES_PER_TXN
        from repro.baselines.web_based import LOGIN_PAGES

        scenario = build_scenario(seed=32)
        runner = scenario.web_based_runner()
        proc = scenario.sim.process(runner.run(scenario.transactions(4)))
        result = scenario.sim.run(until=proc)
        # browser opens one connection per page (+ login per bank)
        assert result.connections == 4 * PAGES_PER_TXN + 2 * LOGIN_PAGES

    def test_transactions_commit_on_final_page(self):
        scenario = build_scenario(seed=32)
        runner = scenario.web_based_runner()
        proc = scenario.sim.process(runner.run(scenario.transactions(3)))
        scenario.sim.run(until=proc)
        committed = sum(
            web.transactions_processed for web in scenario.bank_webs.values()
        )
        assert committed == 3

    def test_runs_from_desktop(self):
        scenario = build_scenario(seed=32)
        runner = scenario.web_based_runner()
        assert runner.device.address == "desktop"

    def test_invalid_pages_per_txn(self):
        from repro.baselines import WebBasedRunner

        scenario = build_scenario(seed=32)
        with pytest.raises(ValueError):
            WebBasedRunner(scenario.desktop, pages_per_txn=0)


class TestClientAgentServer:
    def test_submit_and_collect(self):
        scenario = build_scenario(seed=33, with_agent_server=True)
        runner = scenario.client_agent_server_runner()

        def flow():
            ticket = yield from runner.submit(
                "ebanking", {"transactions": scenario.transactions(3)}
            )
            yield scenario.agent_server.completion_of(ticket)
            data = yield from runner.collect(ticket)
            return data

        proc = scenario.sim.process(flow())
        data = scenario.sim.run(until=proc)
        assert len(data["transactions"]) == 3

    def test_uninstalled_service_rejected(self):
        from repro.simnet.http import HttpError

        scenario = build_scenario(seed=33, with_agent_server=True)
        runner = scenario.client_agent_server_runner()

        def flow():
            yield from runner.submit("unknown-app", {})

        proc = scenario.sim.process(flow())
        with pytest.raises(HttpError) as err:
            scenario.sim.run(until=proc)
        assert err.value.status == 404

    def test_collect_not_ready_returns_none(self):
        scenario = build_scenario(seed=33, with_agent_server=True)
        # slow the banks so the agent is still travelling at collect time
        for bank in scenario.banks:
            scenario.deployment.mas(bank)._services["banking"].processing_time = 60.0
        runner = scenario.client_agent_server_runner()

        def flow():
            ticket = yield from runner.submit(
                "ebanking", {"transactions": scenario.transactions(2)}
            )
            early = yield from runner.collect(ticket)
            return early

        proc = scenario.sim.process(flow())
        assert scenario.sim.run(until=proc) is None

    def test_run_metrics_two_connections(self):
        scenario = build_scenario(seed=33, with_agent_server=True)
        runner = scenario.client_agent_server_runner()

        def flow():
            # use run() with the oracle completion event
            ticket_holder = {}

            def patched_submit(service, params):
                ticket = yield from runner.submit(service, params)
                ticket_holder["t"] = ticket
                return ticket

            result = yield from runner.run(
                "ebanking",
                {"transactions": scenario.transactions(2)},
            )
            return result

        proc = scenario.sim.process(flow())
        result = scenario.sim.run(until=proc)
        assert result.approach == "client-agent-server"
        # submit + N polls + final collect; polling happens every 5s
        assert result.connections >= 2

    def test_installed_services_listing(self):
        scenario = build_scenario(seed=33, with_agent_server=True)
        assert scenario.agent_server.installed_services() == ["ebanking"]

    def test_duplicate_install_rejected(self):
        from repro.baselines import InstalledApp

        scenario = build_scenario(seed=33, with_agent_server=True)
        with pytest.raises(ValueError):
            scenario.agent_server.install(
                InstalledApp("ebanking", "EBankingAgent", lambda p, o: [])
            )
