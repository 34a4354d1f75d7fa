"""Network topology: nodes, links, routing, and datagram delivery.

The :class:`Network` ties together the kernel, the RNG streams, the node
table and the link table.  Routes are shortest paths weighted by base link
latency.  In every deployment the devices, gateways and sites each hang off
one uplink, so the router treats such *leaves* (nodes whose live links all
go to one neighbour) as their uplink plus one hop and runs Dijkstra only
over the small infrastructure *core* of multi-neighbour nodes.  The core's
per-source path tables survive every change that leaves the core alone
(device attach, handover, a leaf's link going down).

Multi-hop transfers are modelled end-to-end: propagation delay is the sum of
per-link latency samples and serialisation uses the bottleneck (minimum)
bandwidth along the route — the standard fluid approximation, adequate
because the evaluation's quantities are dominated by the wireless first hop.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Generator, Iterable, Optional

from .kernel import Simulator
from .link import Link, LinkSpec
from .node import Node
from .rng import StreamFactory
from .trace import Tracer
from repro.telemetry.spans import Telemetry

__all__ = ["Network", "Datagram", "NoRouteError"]


class NoRouteError(Exception):
    """Raised when no path exists between two attached nodes."""


@dataclass(frozen=True)
class Datagram:
    """Connectionless probe message (the paper's '1-bit data' RTT probe)."""

    src: str
    dst: str
    payload: Any
    size: int
    sent_at: float


class Network:
    """A simulated internetwork.

    Parameters
    ----------
    sim:
        The event kernel.  Created internally if omitted.
    master_seed:
        Seed for the :class:`~repro.simnet.rng.StreamFactory`; fully
        determines all stochastic behaviour of a run.
    """

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        master_seed: int = 0,
    ) -> None:
        self.sim = sim if sim is not None else Simulator()
        self.streams = StreamFactory(master_seed)
        # One span/metric sink per network; the tracer shares the registry so
        # legacy counters and new spans aggregate in one place.
        self.telemetry = Telemetry(self.sim)
        self.tracer = Tracer(self.sim, metrics=self.telemetry.metrics)
        self._nodes: dict[str, Node] = {}
        self._links: dict[tuple[str, str], Link] = {}
        # Live-link neighbourhood: node -> {neighbour: live links between
        # the two (1 or 2)}.  One neighbour makes a leaf, two or more a
        # core node.
        self._nbrs: dict[str, dict[str, int]] = {}
        # Core adjacency: core node -> {core successor: base latency of the
        # live link}.  Its keys are exactly the core nodes.
        self._core: dict[str, dict[str, float]] = {}
        # Single-source shortest paths over the core, filled per source on
        # demand and dropped only when the core changes.
        self._core_paths: dict[str, dict[str, list[str]]] = {}
        # Per-pair caches (node path, link objects, bottleneck bandwidth),
        # cleared on every link change.
        self._routes: dict[tuple[str, str], list[str]] = {}
        self._route_links: dict[tuple[str, str], list[Link]] = {}
        self._bottlenecks: dict[tuple[str, str], float] = {}

    def _invalidate_routes(self) -> None:
        self._routes.clear()
        self._route_links.clear()
        self._bottlenecks.clear()

    def _live_changed(self, src: str, dst: str, live: bool) -> None:
        """Fold link ``src->dst`` going live (or dead) into the leaf/core state.

        O(1): only the two endpoints' neighbour counts move, and a node
        crossing between leaf and core has at most two neighbours to relink.
        The core path table is dropped only if the core itself changed.
        """
        nbrs, core = self._nbrs, self._core
        if src in core and dst in core:
            if live:
                core[src][dst] = self._links[(src, dst)].spec.latency
            else:
                del core[src][dst]
            self._core_paths.clear()
        step = 1 if live else -1
        for node, other in ((src, dst), (dst, src)):
            nb = nbrs[node]
            was_core = len(nb) >= 2
            count = nb.get(other, 0) + step
            if count:
                nb[other] = count
            else:
                del nb[other]
            if was_core == (len(nb) >= 2):
                continue
            self._core_paths.clear()
            if was_core:  # demoted to a leaf (or isolated)
                del core[node]
                for peer in nb:
                    if peer in core:
                        core[peer].pop(node, None)
                continue
            row = core[node] = {}
            for peer in nb:
                if peer not in core:
                    continue
                out = self._links.get((node, peer))
                if out is not None and out.up:
                    row[peer] = out.spec.latency
                back = self._links.get((peer, node))
                if back is not None and back.up:
                    core[peer][node] = back.spec.latency

    # -- topology construction -------------------------------------------------
    def add_node(self, node: Node | str, kind: str = "host", cpu_factor: float = 1.0) -> Node:
        """Attach ``node`` (or create one from an address string)."""
        if isinstance(node, str):
            node = Node(node, kind=kind, cpu_factor=cpu_factor)
        if node.address in self._nodes:
            raise ValueError(f"duplicate node address {node.address!r}")
        node._attach(self)
        self._nodes[node.address] = node
        self._nbrs[node.address] = {}
        return node

    def node(self, address: str) -> Node:
        """Look up a node by address."""
        try:
            return self._nodes[address]
        except KeyError:
            raise KeyError(f"unknown node {address!r}") from None

    def has_node(self, address: str) -> bool:
        return address in self._nodes

    @property
    def nodes(self) -> Iterable[Node]:
        return self._nodes.values()

    def add_link(self, src: str, dst: str, spec: LinkSpec) -> Link:
        """Add a directed link; both endpoints must already be attached."""
        if src not in self._nodes or dst not in self._nodes:
            raise KeyError(f"both endpoints of {src}->{dst} must be nodes")
        if src == dst:
            raise ValueError("self-links are not allowed")
        if (src, dst) in self._links:
            raise ValueError(f"duplicate link {src}->{dst}")
        link = Link(src, dst, spec)
        link.attach_stream(self.streams.get(f"link:{src}->{dst}"))
        self._links[(src, dst)] = link
        self._live_changed(src, dst, True)
        self._invalidate_routes()
        return link

    def add_duplex_link(self, a: str, b: str, spec: LinkSpec) -> tuple[Link, Link]:
        """Add symmetric links a→b and b→a with the same spec."""
        return self.add_link(a, b, spec), self.add_link(b, a, spec)

    def remove_link(self, src: str, dst: str) -> None:
        """Remove a directed link permanently (device mobility/re-homing)."""
        if (src, dst) not in self._links:
            raise KeyError(f"no link {src}->{dst}")
        if self._links[(src, dst)].up:
            self._live_changed(src, dst, False)
        del self._links[(src, dst)]
        self._invalidate_routes()

    def remove_duplex_link(self, a: str, b: str) -> None:
        """Remove both directions between ``a`` and ``b``."""
        self.remove_link(a, b)
        self.remove_link(b, a)

    def link(self, src: str, dst: str) -> Link:
        try:
            return self._links[(src, dst)]
        except KeyError:
            raise KeyError(f"no link {src}->{dst}") from None

    def has_link(self, src: str, dst: str) -> bool:
        return (src, dst) in self._links

    def update_link_spec(self, src: str, dst: str, spec: LinkSpec) -> LinkSpec:
        """Swap a link's spec in place (degradation faults); returns the old spec.

        The link keeps its RNG stream and cumulative accounting; routing
        weights are refreshed since the base latency may have changed.
        """
        link = self.link(src, dst)
        old = link.spec
        link.spec = spec
        row = self._core.get(src)
        if row is not None and dst in row:
            row[dst] = spec.latency
            self._core_paths.clear()
        self._invalidate_routes()
        return old

    @property
    def links(self) -> Iterable[Link]:
        return self._links.values()

    def set_link_state(self, src: str, dst: str, up: bool) -> None:
        """Take a link down / bring it up; routes are recomputed."""
        link = self.link(src, dst)
        if link.up == up:
            return
        link.up = up
        self._live_changed(src, dst, up)
        self._invalidate_routes()

    # -- routing ------------------------------------------------------------
    def route(self, src: str, dst: str) -> list[str]:
        """Shortest-latency node path from ``src`` to ``dst`` (inclusive)."""
        if src == dst:
            return [src]
        key = (src, dst)
        path = self._routes.get(key)
        if path is None:
            if src not in self._nodes or dst not in self._nodes:
                raise KeyError(f"route endpoints {src!r}/{dst!r} must be nodes")
            path = self._compute_route(src, dst)
            self._routes[key] = path
        return path

    def _compute_route(self, src: str, dst: str) -> list[str]:
        """Leaf uplinks stripped off both ends, core path in between."""
        links = self._links
        a, b = src, dst
        nb = self._nbrs[src]
        if len(nb) == 1:
            (a,) = nb
            uplink = links.get((src, a))
            if uplink is None or not uplink.up:
                raise NoRouteError(f"no route {src} -> {dst}")
            if a == dst:
                return [src, dst]
        nb = self._nbrs[dst]
        if len(nb) == 1:
            (b,) = nb
            downlink = links.get((b, dst))
            if downlink is None or not downlink.up:
                raise NoRouteError(f"no route {src} -> {dst}")
            if b == src:
                return [src, dst]
        if a == b:  # two leaves under one uplink
            return [src, a, dst]
        if a not in self._core or b not in self._core:
            raise NoRouteError(f"no route {src} -> {dst}")
        paths = self._core_paths.get(a)
        if paths is None:
            paths = self._core_paths[a] = self._core_dijkstra(a)
        path = paths.get(b)
        if path is None:
            raise NoRouteError(f"no route {src} -> {dst}")
        if a != src:
            path = [src] + path
        if b != dst:
            path = path + [dst]
        return path

    def _core_dijkstra(self, source: str) -> dict[str, list[str]]:
        """Shortest latency paths from ``source`` to every reachable core node."""
        core = self._core
        paths = {source: [source]}
        dist = {source: 0.0}
        done: set[str] = set()
        heap = [(0.0, source)]
        while heap:
            d, node = heapq.heappop(heap)
            if node in done:
                continue
            done.add(node)
            for peer, weight in core[node].items():
                nd = d + weight
                if peer not in dist or nd < dist[peer]:
                    dist[peer] = nd
                    paths[peer] = paths[node] + [peer]
                    heapq.heappush(heap, (nd, peer))
        return paths

    def path_links(self, src: str, dst: str) -> list[Link]:
        """Links along the current route from ``src`` to ``dst``."""
        key = (src, dst)
        links = self._route_links.get(key)
        if links is None:
            path = self.route(src, dst)
            links = [self._links[(a, b)] for a, b in zip(path, path[1:])]
            self._route_links[key] = links
        return links

    def bottleneck_bandwidth(self, src: str, dst: str) -> float:
        """Minimum bandwidth along the route (fluid model)."""
        key = (src, dst)
        bottleneck = self._bottlenecks.get(key)
        if bottleneck is None:
            links = self.path_links(src, dst)
            bottleneck = (
                min(l.spec.bandwidth for l in links) if links else float("inf")
            )
            self._bottlenecks[key] = bottleneck
        return bottleneck

    def base_rtt(self, src: str, dst: str) -> float:
        """Deterministic (jitter-free) round-trip latency between two nodes."""
        fwd = sum(l.spec.latency for l in self.path_links(src, dst))
        back = sum(l.spec.latency for l in self.path_links(dst, src))
        return fwd + back

    # -- end-to-end delay sampling ------------------------------------------
    def sample_path_delay(self, src: str, dst: str, size: int) -> tuple[float, int]:
        """One end-to-end delivery attempt: ``(delay, retries)``.

        Each link samples its own jitter; a sampled loss on any link costs
        that link's RTO and restarts the attempt (bounded retries are the
        transport's job — here we model until success, counting retries).
        """
        links = self.path_links(src, dst)
        if not links:
            return 0.0, 0
        delay = 0.0
        retries = 0
        bottleneck = self.bottleneck_bandwidth(src, dst)
        for link in links:
            link_retries = 0
            while link.spec.sample_loss(link.stream):
                link_retries += 1
                delay += link.spec.rto
                if retries + link_retries > 64:  # pathological spec; avoid unbounded loop
                    raise RuntimeError(
                        f"link {link.key} lost 64 consecutive transfers"
                    )
            retries += link_retries
            delay += link.spec.sample_latency(link.stream)
            link.record_transfer(size, link_retries)
        delay += size / bottleneck
        return delay, retries

    # -- datagram service ------------------------------------------------------
    def send_datagram(
        self, src: str, dst: str, payload: Any = None, size: int = 1
    ) -> None:
        """Fire-and-forget delivery of a small probe message.

        Delivery is a background process; the datagram appears in the
        destination node's :attr:`~repro.simnet.node.Node.datagrams` mailbox
        after the sampled one-way delay.
        """
        dgram = Datagram(src, dst, payload, size, self.sim.now)
        self.sim.process(self._deliver(dgram), name=f"dgram:{src}->{dst}")

    def _deliver(self, dgram: Datagram) -> Generator:
        delay, _ = self.sample_path_delay(dgram.src, dgram.dst, dgram.size)
        yield self.sim.timeout(delay)
        self.node(dgram.dst).datagrams.put(dgram)
        self.tracer.count("datagrams_delivered")

    def ping(self, src: str, dst: str, size: int = 1) -> Generator:
        """Process: measure one RTT ``src`` → ``dst`` → ``src`` (returns seconds).

        This is the §3.5 probe: the reflector echoes immediately, so the
        measured value is the two sampled one-way delays.
        """
        t0 = self.sim.now
        fwd, _ = self.sample_path_delay(src, dst, size)
        yield self.sim.timeout(fwd)
        back, _ = self.sample_path_delay(dst, src, size)
        yield self.sim.timeout(back)
        return self.sim.now - t0
