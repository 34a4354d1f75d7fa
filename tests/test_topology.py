"""Tests for links, routing, datagrams, and path-delay sampling."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device import link_profile
from repro.device.mobility import schedule as mobility_schedule
from repro.simnet import LinkDegrade, LinkSpec, Network, Node, NoRouteError
from repro.simtest.harness import _fault_edge, build_deployment
from repro.simtest.spec import generate


def spec(latency=0.01, bandwidth=1e6, **kw):
    return LinkSpec(latency=latency, bandwidth=bandwidth, **kw)


class TestLinkSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            LinkSpec(latency=-1, bandwidth=1)
        with pytest.raises(ValueError):
            LinkSpec(latency=0, bandwidth=0)
        with pytest.raises(ValueError):
            LinkSpec(latency=0, bandwidth=1, jitter=-1)
        with pytest.raises(ValueError):
            LinkSpec(latency=0, bandwidth=1, loss=1.0)
        with pytest.raises(ValueError):
            LinkSpec(latency=0, bandwidth=1, jitter_model="weird")
        with pytest.raises(ValueError):
            LinkSpec(latency=0, bandwidth=1, setup_time=-0.1)

    def test_no_jitter_is_deterministic(self):
        net = Network(master_seed=0)
        net.add_node("a")
        net.add_node("b")
        link = net.add_link("a", "b", spec(latency=0.5))
        assert link.spec.sample_latency(link.stream) == 0.5

    def test_exponential_jitter_adds(self):
        net = Network(master_seed=0)
        net.add_node("a")
        net.add_node("b")
        link = net.add_link("a", "b", spec(latency=0.5, jitter=0.1))
        samples = [link.spec.sample_latency(link.stream) for _ in range(100)]
        assert all(s >= 0.5 for s in samples)
        assert any(s > 0.5 for s in samples)

    def test_normal_jitter_truncated_at_zero(self):
        s = spec(latency=0.001, jitter=1.0, jitter_model="normal")
        net = Network(master_seed=0)
        net.add_node("a")
        net.add_node("b")
        link = net.add_link("a", "b", s)
        assert all(link.spec.sample_latency(link.stream) >= 0 for _ in range(200))

    def test_transfer_time_includes_serialisation(self):
        s = spec(latency=0.1, bandwidth=1000)
        net = Network(master_seed=0)
        net.add_node("a")
        net.add_node("b")
        link = net.add_link("a", "b", s)
        assert link.spec.transfer_time(1000, link.stream) == pytest.approx(1.1)

    def test_transfer_negative_size_raises(self):
        s = spec()
        net = Network(master_seed=0)
        net.add_node("a")
        net.add_node("b")
        link = net.add_link("a", "b", s)
        with pytest.raises(ValueError):
            link.spec.transfer_time(-1, link.stream)

    def test_scaled(self):
        s = spec(latency=0.1, bandwidth=1000, jitter=0.02)
        s2 = s.scaled(latency_factor=2.0, bandwidth_factor=0.5)
        assert s2.latency == pytest.approx(0.2)
        assert s2.jitter == pytest.approx(0.04)
        assert s2.bandwidth == pytest.approx(500)


class TestTopology:
    @pytest.fixture
    def net(self):
        net = Network(master_seed=1)
        for name in ("a", "b", "c", "d"):
            net.add_node(name)
        net.add_duplex_link("a", "b", spec(latency=0.01))
        net.add_duplex_link("b", "c", spec(latency=0.01))
        net.add_duplex_link("a", "c", spec(latency=0.1))  # slow shortcut
        net.add_duplex_link("c", "d", spec(latency=0.01))
        return net

    def test_duplicate_node_raises(self, net):
        with pytest.raises(ValueError):
            net.add_node("a")

    def test_unknown_node_raises(self, net):
        with pytest.raises(KeyError):
            net.node("zzz")

    def test_self_link_raises(self, net):
        with pytest.raises(ValueError):
            net.add_link("a", "a", spec())

    def test_duplicate_link_raises(self, net):
        with pytest.raises(ValueError):
            net.add_link("a", "b", spec())

    def test_route_prefers_low_latency(self, net):
        # a->b->c (0.02) beats direct a->c (0.1)
        assert net.route("a", "c") == ["a", "b", "c"]

    def test_route_to_self(self, net):
        assert net.route("a", "a") == ["a"]

    def test_no_route_raises(self):
        net = Network()
        net.add_node("x")
        net.add_node("y")
        with pytest.raises(NoRouteError):
            net.route("x", "y")

    def test_link_down_reroutes(self, net):
        net.set_link_state("a", "b", up=False)
        assert net.route("a", "c") == ["a", "c"]
        net.set_link_state("a", "b", up=True)
        assert net.route("a", "c") == ["a", "b", "c"]

    def test_bottleneck_bandwidth(self, net):
        net2 = Network()
        for n in ("x", "y", "z"):
            net2.add_node(n)
        net2.add_link("x", "y", spec(bandwidth=100))
        net2.add_link("y", "z", spec(bandwidth=50))
        assert net2.bottleneck_bandwidth("x", "z") == 50

    def test_base_rtt_symmetric_topology(self, net):
        rtt = net.base_rtt("a", "c")
        assert rtt == pytest.approx(0.04)  # 2 hops x 0.01 each way

    def test_sample_path_delay_accounts_bytes(self, net):
        delay, retries = net.sample_path_delay("a", "b", 1_000_000)
        assert retries == 0
        assert delay >= 1.0  # 1 MB over 1 MB/s

    def test_node_compute_scales(self):
        net = Network()
        node = net.add_node(Node("slow", cpu_factor=10.0))
        ev = node.compute(0.5)
        net.sim.run()
        assert net.sim.now == pytest.approx(5.0)

    def test_unattached_node_compute_raises(self):
        node = Node("orphan")
        with pytest.raises(RuntimeError):
            node.compute(1.0)

    def test_invalid_cpu_factor(self):
        with pytest.raises(ValueError):
            Node("bad", cpu_factor=0)


class TestDatagramsAndPing:
    @pytest.fixture
    def net(self):
        net = Network(master_seed=5)
        net.add_node("a")
        net.add_node("b")
        net.add_duplex_link("a", "b", spec(latency=0.2))
        return net

    def test_datagram_delivery(self, net):
        net.send_datagram("a", "b", payload={"hello": 1}, size=1)

        def consumer():
            dgram = yield net.node("b").datagrams.get()
            return dgram

        proc = net.sim.process(consumer())
        dgram = net.sim.run(until=proc)
        assert dgram.payload == {"hello": 1}
        assert net.sim.now >= 0.2

    def test_ping_measures_rtt(self, net):
        proc = net.sim.process(net.ping("a", "b"))
        rtt = net.sim.run(until=proc)
        # 2 x 0.2 s latency plus the 1-byte serialisation at 1 MB/s
        assert rtt == pytest.approx(0.4, abs=1e-3)

    def test_ping_reflects_jitter(self):
        net = Network(master_seed=6)
        net.add_node("a")
        net.add_node("b")
        net.add_duplex_link("a", "b", spec(latency=0.2, jitter=0.3))
        rtts = []
        for _ in range(5):
            proc = net.sim.process(net.ping("a", "b"))
            rtts.append(net.sim.run(until=proc))
        assert len(set(rtts)) > 1
        assert all(r >= 0.4 for r in rtts)

    def test_loss_forces_retries(self):
        net = Network(master_seed=7)
        net.add_node("a")
        net.add_node("b")
        net.add_link("a", "b", spec(latency=0.01, loss=0.5, rto=1.0))
        total_retries = 0
        for _ in range(50):
            _, retries = net.sample_path_delay("a", "b", 10)
            total_retries += retries
        assert total_retries > 0

    def test_link_accounting(self, net):
        net.sample_path_delay("a", "b", 500)
        link = net.link("a", "b")
        assert link.bytes_carried == 500
        assert link.transfers == 1


class TestShardAssignment:
    """Datagram delivery on the hub-and-spoke shape the population runs
    use: every hop is a plain timeout on the one kernel."""

    def _star(self):
        """Hub-and-spoke: backbone + 2 gateways + 4 devices + 1 site."""
        net = Network(master_seed=0)
        net.add_node("backbone", kind="router")
        net.add_node("bank", kind="site")
        net.add_duplex_link("bank", "backbone", spec(latency=0.05))
        for g in range(2):
            net.add_node(f"gw-{g}", kind="gateway")
            net.add_duplex_link(f"gw-{g}", "backbone", spec(latency=0.02))
        for i in range(4):
            net.add_node(f"dev-{i}", kind="device")
            net.add_duplex_link(f"dev-{i}", "backbone", spec(latency=0.1))
        return net

    def test_delivery_timeout_single_kernel_is_plain_timeout(self):
        net = self._star()
        net.send_datagram("dev-0", "gw-1", payload="x")
        net.sim.run()
        assert len(net.node("gw-1").datagrams.items) == 1
        assert net.sim.now == pytest.approx(0.1 + 0.02, abs=1e-3)


# ---------------------------------------------------------------- route oracle
def oracle_graph(net):
    """The network's live links as a networkx graph weighted by latency."""
    g = nx.DiGraph()
    g.add_nodes_from(node.address for node in net.nodes)
    for link in net.links:
        if link.up:
            g.add_edge(link.src, link.dst, weight=link.spec.latency)
    return g


def assert_routes_match_oracle(net):
    """For every ordered pair: the route, its links and its bottleneck
    equal networkx's shortest path, and unreachable pairs raise."""
    g = oracle_graph(net)
    for src in g:
        for dst in g:
            try:
                expected = nx.shortest_path(g, src, dst, weight="weight")
            except nx.NetworkXNoPath:
                with pytest.raises(NoRouteError):
                    net.route(src, dst)
                continue
            assert net.route(src, dst) == expected, (src, dst)
            links = net.path_links(src, dst)
            assert [link.key for link in links] == list(zip(expected, expected[1:]))
            assert net.bottleneck_bandwidth(src, dst) == min(
                (link.spec.bandwidth for link in links), default=float("inf")
            )


def ebank_star(n_devices=12):
    """ebank-crowd shape: central, gateways, a bank and WLAN devices, all
    wired straight to the backbone."""
    net = Network(master_seed=0)
    net.add_node("backbone", kind="router")
    for addr, profile in (("central", "LAN"), ("gw-0", "LAN"), ("gw-1", "LAN"),
                          ("bank-a", "WAN")):
        net.add_node(addr)
        net.add_duplex_link(addr, "backbone", link_profile(profile))
    for i in range(n_devices):
        net.add_node(f"dev-{i}", kind="device")
        net.add_duplex_link(f"dev-{i}", "backbone", link_profile("WLAN"))
    return net


def ap_cell_tree(n_aps=3, n_devices=10):
    """Harness / city shape: devices on AP routers hanging off the backbone."""
    net = ebank_star(n_devices=0)
    for j in range(n_aps):
        net.add_node(f"ap-{j}", kind="router")
        net.add_duplex_link(f"ap-{j}", "backbone", link_profile("LAN"))
    for i in range(n_devices):
        net.add_node(f"dev-{i}", kind="device")
        wireless = "GPRS" if i % 4 == 3 else "WLAN"
        net.add_duplex_link(f"dev-{i}", f"ap-{i % n_aps}", link_profile(wireless))
    return net


def _spec_steps(spec):
    """The spec's link-down, degrade and handover events as network
    mutations in time order (fault ends included)."""
    steps = []
    for fault in spec.faults:
        if fault.kind == "site-crash":
            continue
        a, b = _fault_edge(spec, fault.target)
        degrade = LinkDegrade(a, b, at=fault.at, duration=fault.duration,
                              latency_factor=fault.latency_factor, loss=fault.loss)
        steps.append((fault.at, fault.kind, (a, b, degrade)))
        steps.append((fault.at + fault.duration, "restore", (a, b, degrade)))
    for dev in spec.devices:
        if dev.move_at is not None:
            steps.append((dev.move_at, "move", (dev.name, dev.move_to_ap, dev.wireless)))
        if dev.mobility is not None:
            for at, ap in mobility_schedule(dev.mobility):
                steps.append((at, "move", (dev.name, ap, dev.wireless)))
    steps.sort(key=lambda step: step[0])
    return [(kind, args) for _, kind, args in steps]


def _apply_step(net, kind, args, originals, attachment):
    if kind == "move":
        name, ap, wireless = args
        old = attachment[name]
        if old != f"ap-{ap}":
            net.remove_duplex_link(name, old)
            net.add_duplex_link(name, f"ap-{ap}", link_profile(wireless))
            attachment[name] = f"ap-{ap}"
        return
    a, b, degrade = args
    for x, y in ((a, b), (b, a)):
        if not net.has_link(x, y):
            continue  # a handover already tore this radio link down
        if kind == "link-down":
            net.set_link_state(x, y, False)
        elif kind == "restore":
            if (x, y) in originals:
                net.update_link_spec(x, y, originals.pop((x, y)))
            else:
                net.set_link_state(x, y, True)
        else:
            spec = net.link(x, y).spec
            originals.setdefault((x, y), spec)
            net.update_link_spec(x, y, degrade.degraded(spec))


class TestRouteOracle:
    """``route()`` equals networkx's shortest path for every ordered pair."""

    def test_ebank_star(self):
        assert_routes_match_oracle(ebank_star())

    def test_ap_cell_tree(self):
        assert_routes_match_oracle(ap_cell_tree())

    @pytest.mark.parametrize("seed", range(20))
    def test_simtest_networks_before_and_after_events(self, seed):
        spec = generate(seed)
        net = build_deployment(spec).network
        assert_routes_match_oracle(net)
        attachment = {dev.name: f"ap-{dev.ap}" for dev in spec.devices}
        originals = {}
        steps = _spec_steps(spec)
        for kind, args in steps:
            _apply_step(net, kind, args, originals, attachment)
            if kind != "restore":
                assert_routes_match_oracle(net)
        assert_routes_match_oracle(net)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_generated_graphs_under_mutation(self, data):
        """Small random digraphs, then a random sequence of link adds,
        removals, state flips and re-weightings.  Every directed edge gets
        its own power-of-two latency, so every simple path has a distinct
        exact length and the shortest path is unique."""
        n = data.draw(st.integers(2, 6), label="nodes")
        names = [f"n{i}" for i in range(n)]
        pairs = [(a, b) for a in names for b in names if a != b]
        fresh = iter(range(60))

        def latency():
            return 2.0 ** -next(fresh)

        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True), label="edges")
        net = Network(master_seed=0)
        for name in names:
            net.add_node(name)
        for a, b in edges:
            net.add_link(a, b, spec(latency=latency()))
        assert_routes_match_oracle(net)
        ops = data.draw(st.lists(
            st.tuples(st.sampled_from(("add", "remove", "down", "up", "weight")),
                      st.sampled_from(pairs)),
            max_size=12,
        ), label="ops")
        for op, (a, b) in ops:
            if op == "add":
                if net.has_link(a, b):
                    continue
                net.add_link(a, b, spec(latency=latency()))
            elif not net.has_link(a, b):
                continue
            elif op == "remove":
                net.remove_link(a, b)
            elif op in ("down", "up"):
                net.set_link_state(a, b, op == "up")
            else:
                net.update_link_spec(a, b, spec(latency=latency(), bandwidth=7.0))
            assert_routes_match_oracle(net)


class TestLeafRouting:
    """Edge cases of routing leaves (single-neighbour nodes) by their uplink."""

    def test_leaf_uplink_down_one_direction(self):
        net = ebank_star(n_devices=2)
        net.set_link_state("backbone", "dev-0", False)
        with pytest.raises(NoRouteError):
            net.route("gw-0", "dev-0")
        assert net.route("dev-0", "gw-0") == ["dev-0", "backbone", "gw-0"]
        net.set_link_state("dev-1", "backbone", False)
        with pytest.raises(NoRouteError):
            net.route("dev-1", "gw-0")
        with pytest.raises(NoRouteError):
            net.route("dev-1", "dev-0")
        assert_routes_match_oracle(net)

    def test_leaf_to_its_own_uplink(self):
        net = ebank_star(n_devices=2)
        assert net.route("dev-0", "backbone") == ["dev-0", "backbone"]
        assert net.route("backbone", "dev-0") == ["backbone", "dev-0"]

    def test_two_leaves_on_one_ap(self):
        net = ap_cell_tree(n_aps=2, n_devices=4)
        assert net.route("dev-0", "dev-2") == ["dev-0", "ap-0", "dev-2"]
        assert net.route("dev-0", "dev-1") == ["dev-0", "ap-0", "backbone", "ap-1", "dev-1"]

    def test_two_node_component(self):
        net = Network()
        for name in ("a", "b", "c"):
            net.add_node(name)
        net.add_duplex_link("a", "b", spec())
        assert net.route("a", "b") == ["a", "b"]
        with pytest.raises(NoRouteError):
            net.route("a", "c")
        with pytest.raises(NoRouteError):
            net.route("c", "b")

    def test_leaf_gaining_second_link_stops_being_a_leaf(self):
        net = ap_cell_tree(n_aps=2, n_devices=4)
        net.update_link_spec("ap-0", "backbone", spec(latency=0.5))
        before = net.route("dev-0", "gw-0")
        assert before == ["dev-0", "ap-0", "backbone", "gw-0"]
        net.add_duplex_link("dev-0", "ap-1", link_profile("WLAN"))
        assert net.route("dev-0", "gw-0") == ["dev-0", "ap-1", "backbone", "gw-0"]
        assert net.route("dev-2", "dev-0") == ["dev-2", "ap-0", "dev-0"]
        assert_routes_match_oracle(net)
        net.remove_duplex_link("dev-0", "ap-1")
        assert net.route("dev-0", "gw-0") == before
        assert_routes_match_oracle(net)

    def test_core_edge_changes_reroute_and_refresh(self):
        # Core triangle x-y-z with a leaf on x and one on z.
        net = Network()
        for name in ("x", "y", "z", "p", "q"):
            net.add_node(name)
        net.add_duplex_link("x", "y", spec(latency=0.01, bandwidth=100))
        net.add_duplex_link("y", "z", spec(latency=0.01, bandwidth=100))
        net.add_duplex_link("x", "z", spec(latency=0.05, bandwidth=40))
        net.add_duplex_link("p", "x", spec(latency=0.001, bandwidth=1000))
        net.add_duplex_link("q", "z", spec(latency=0.001, bandwidth=1000))
        assert net.route("p", "q") == ["p", "x", "y", "z", "q"]
        assert net.bottleneck_bandwidth("p", "q") == 100
        assert net.base_rtt("p", "q") == pytest.approx(2 * 0.022)

        net.set_link_state("x", "y", False)
        assert net.route("p", "q") == ["p", "x", "z", "q"]
        assert net.bottleneck_bandwidth("p", "q") == 40
        assert net.base_rtt("p", "q") == pytest.approx(0.052 + 0.022)

        net.set_link_state("x", "y", True)
        net.update_link_spec("y", "z", spec(latency=0.1, bandwidth=10))
        assert net.route("p", "q") == ["p", "x", "z", "q"]
        assert net.route("q", "p") == ["q", "z", "y", "x", "p"]
        assert net.bottleneck_bandwidth("q", "p") == 100
        assert net.base_rtt("p", "q") == pytest.approx(0.052 + 0.022)

        net.update_link_spec("y", "z", spec(latency=0.01, bandwidth=20))
        assert net.route("p", "q") == ["p", "x", "y", "z", "q"]
        assert net.bottleneck_bandwidth("p", "q") == 20
        assert_routes_match_oracle(net)

    def test_leaf_changes_keep_core_paths(self):
        """Attaching and handing over leaves leaves the core path table
        alone; a node crossing into or out of the core drops it."""
        net = ap_cell_tree(n_aps=2, n_devices=4)
        net.route("dev-0", "gw-0")
        core_paths = dict(net._core_paths)
        assert core_paths
        net.add_node("dev-9", kind="device")
        net.add_duplex_link("dev-9", "ap-0", link_profile("WLAN"))
        net.remove_duplex_link("dev-9", "ap-0")
        net.add_duplex_link("dev-9", "ap-1", link_profile("WLAN"))
        net.set_link_state("dev-9", "ap-1", False)
        net.set_link_state("dev-9", "ap-1", True)
        assert net._core_paths == core_paths
        net.add_node("ap-2", kind="router")
        net.add_duplex_link("ap-2", "backbone", link_profile("LAN"))
        assert net._core_paths == core_paths  # ap-2 is still a leaf
        net.add_duplex_link("dev-9", "ap-2", link_profile("WLAN"))
        assert net._core_paths == {}
        assert_routes_match_oracle(net)
