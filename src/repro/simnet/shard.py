"""Sharded simulation kernel: per-region event calendars, one global order.

:class:`ShardedSimulator` partitions the event calendar into *shards* (one
per gateway region in the scale harness) that each own a private binary
heap, and advances them under **conservative lookahead**: the coordinator
drains a batch of events from the shard whose head is globally minimal,
running ahead only up to the earliest event any *other* shard (or the
cross-shard exchange) could still contribute.  Cross-shard traffic —
datagram and transport deliveries whose destination lives in another
region — is routed through an **epoch-windowed exchange queue** and merged
back deterministically.

Determinism contract
--------------------
The merge key is the exact single-heap key ``(time, priority, seq)`` with
one *global* sequence counter, so a sharded run processes the identical
event sequence as :class:`~repro.simnet.kernel.Simulator` on the same seed
— byte-identical down to telemetry JSONL exports (the simtest swarm and
the golden trace byte-compares pin this).  Shard assignment is therefore
purely a *performance* hint:

* a mis-assigned entity costs locality, never correctness;
* the lookahead bound only controls how much work is batched between
  coordinator rescans and how cross-shard deliveries are windowed —
  exactness is enforced by the merge itself, even when jitter undercuts
  the nominal minimum inter-shard link latency.

The payoff is locality: per-shard heaps stay small and whole conservative
windows drain without touching other shards.  Routing does not depend on
the assignment (:meth:`~repro.simnet.topology.Network.assign_shard` only
homes delivery wake-ups).

For populations that partition cleanly into independent regions,
:func:`run_sharded` fans region simulations out to ``multiprocessing``
workers; each worker returns an *ordered* batch of results that the
coordinator merges deterministically (see ``experiments/scale.py``).
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from typing import Any, Callable, Generator, Iterator, Optional, Sequence

from .kernel import Simulator, StopSimulation
from .primitives import Event, Process, Timeout

__all__ = ["ShardedSimulator", "run_sharded"]

#: Sentinel key greater than every real ``(time, priority, seq)`` key.
_INF_KEY = (float("inf"), 2, 0)


class ShardedSimulator(Simulator):
    """Drop-in :class:`Simulator` with a sharded event calendar.

    Parameters
    ----------
    n_shards:
        Number of private event heaps.  ``1`` behaves exactly like the
        single-heap kernel (and is the parity baseline in tests).
    start_time:
        Initial clock value, as for :class:`Simulator`.
    lookahead:
        Conservative lookahead window (simulated seconds).  Cross-shard
        deliveries scheduled at least this far in the future are buffered
        in the exchange and flushed in epoch-sized batches; ``0`` disables
        windowing (every cross-shard event is inserted immediately).
        Typically set to the topology's minimum inter-shard link latency
        (:meth:`~repro.simnet.topology.Network.conservative_lookahead`).
    """

    def __init__(
        self,
        n_shards: int = 1,
        start_time: float = 0.0,
        lookahead: float = 0.0,
    ) -> None:
        super().__init__(start_time)
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards!r}")
        if lookahead < 0 or lookahead != lookahead:
            raise ValueError(f"invalid lookahead {lookahead!r}")
        self.n_shards = int(n_shards)
        self.lookahead = float(lookahead)
        # The base class heap stays empty; all scheduling goes to _heaps.
        self._heaps: list[list[tuple[float, int, int, Event]]] = [
            [] for _ in range(self.n_shards)
        ]
        # Exchange entries: (time, priority, seq, target_shard, event).
        self._exchange: list[tuple[float, int, int, int, Event]] = []
        self._active_shard = 0
        self._shard_override: Optional[int] = None
        # Batch-drain bookkeeping: a cross-shard push below the current
        # drain bound forces the coordinator to re-pick the next shard.
        self._drain_bound: tuple[float, int, int] = _INF_KEY
        self._drain_dirty = False
        self._exchanged = 0

    # -- shard affinity ------------------------------------------------------
    def _check_shard(self, shard: int) -> int:
        if not 0 <= shard < self.n_shards:
            raise ValueError(
                f"shard {shard!r} outside [0, {self.n_shards})"
            )
        return int(shard)

    @property
    def active_shard(self) -> int:
        """Home shard of the event currently being dispatched."""
        return self._active_shard

    @contextmanager
    def shard_context(self, shard: Optional[int]) -> Iterator[None]:
        """Schedule events created in this block into ``shard``'s calendar."""
        if shard is None:
            yield
            return
        previous = self._shard_override
        self._shard_override = self._check_shard(shard)
        try:
            yield
        finally:
            self._shard_override = previous

    def process(
        self,
        generator: Generator[Event, Any, Any],
        name: str | None = None,
        shard: Optional[int] = None,
    ) -> Process:
        """Register a process; ``shard`` pins its bootstrap (and, through
        context inheritance, its whole event chain) to one calendar."""
        with self.shard_context(shard):
            return super().process(generator, name=name)

    def timeout(
        self, delay: float, value: Any = None, shard: Optional[int] = None
    ) -> Timeout:
        with self.shard_context(shard):
            return super().timeout(delay, value)

    # -- scheduling ----------------------------------------------------------
    def _schedule_event(
        self,
        event: Event,
        delay: float = 0.0,
        priority: bool = False,
    ) -> None:
        if delay < 0.0 or delay != delay:  # rejects negatives and NaN
            raise ValueError(
                f"invalid event delay {delay!r}: must be a non-negative number"
            )
        self._seq += 1
        override = self._shard_override
        shard = self._active_shard if override is None else override
        entry = (self._now + delay, 0 if priority else 1, self._seq, event)
        heapq.heappush(self._heaps[shard], entry)
        if shard != self._active_shard and entry[:3] < self._drain_bound:
            self._drain_dirty = True

    def post_cross_shard(
        self,
        event: Event,
        delay: float,
        shard: int,
        priority: bool = False,
    ) -> None:
        """Schedule an already-triggered ``event`` into another shard's
        calendar through the epoch-windowed exchange.

        Deliveries at least one lookahead window away are buffered and
        flushed in epoch batches; anything closer is inserted immediately,
        so exactness never depends on the lookahead being a true bound.
        """
        if delay < 0.0 or delay != delay:
            raise ValueError(
                f"invalid event delay {delay!r}: must be a non-negative number"
            )
        shard = self._check_shard(shard)
        self._seq += 1
        when = self._now + delay
        key = (when, 0 if priority else 1, self._seq)
        if self.lookahead > 0.0 and delay >= self.lookahead:
            heapq.heappush(self._exchange, key + (shard, event))
            self._exchanged += 1
        else:
            heapq.heappush(self._heaps[shard], key + (event,))
        if shard != self._active_shard and key < self._drain_bound:
            self._drain_dirty = True

    # -- introspection -------------------------------------------------------
    @property
    def cross_shard_exchanged(self) -> int:
        """Cross-shard events routed through the epoch exchange so far."""
        return self._exchanged

    def pending_per_shard(self) -> list[int]:
        """Scheduled-but-unprocessed event count per shard (exchange
        entries count toward their destination shard)."""
        counts = [len(heap) for heap in self._heaps]
        for entry in self._exchange:
            counts[entry[3]] += 1
        return counts

    # -- merge machinery -----------------------------------------------------
    def _flush_exchange(self) -> None:
        """Move one epoch window of buffered cross-shard events into their
        destination heaps, in deterministic ``(time, priority, seq)`` order."""
        exchange = self._exchange
        if not exchange:
            return
        head_time = exchange[0][0]
        lookahead = self.lookahead
        if lookahead > 0.0 and head_time != float("inf"):
            # Epoch boundary strictly after the head, aligned to the window.
            epoch_end = (head_time // lookahead + 1.0) * lookahead
        else:
            epoch_end = head_time
        heaps = self._heaps
        while exchange and exchange[0][0] <= epoch_end:
            when, prio, seq, shard, event = heapq.heappop(exchange)
            heapq.heappush(heaps[shard], (when, prio, seq, event))

    def _min_head(self) -> tuple[Optional[int], tuple[float, int, int]]:
        """(shard, key) of the globally minimal heap head; flushes the
        exchange whenever its head is due first."""
        heaps = self._heaps
        while True:
            best: Optional[int] = None
            best_key = _INF_KEY
            for shard in range(self.n_shards):
                heap = heaps[shard]
                if heap:
                    key = heap[0][:3]
                    if key < best_key:
                        best_key = key
                        best = shard
            exchange = self._exchange
            if exchange and exchange[0][:3] < best_key:
                self._flush_exchange()
                continue
            return best, best_key

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if all calendars
        (including the exchange) are empty."""
        _, key = self._min_head()
        return key[0]

    def step(self) -> None:
        """Process exactly one event, in global merge order."""
        shard, _ = self._min_head()
        if shard is None:
            raise IndexError("step from an empty calendar")
        time, _, _, event = heapq.heappop(self._heaps[shard])
        if time < self._now:  # pragma: no cover - defensive invariant
            raise RuntimeError("event calendar went backwards")
        self._now = time
        self._event_count += 1
        self._active_shard = shard
        event._process()

    def run(self, until: float | Event | None = None) -> Any:
        """Run to exhaustion / a deadline / an event, as the base kernel.

        The coordinator repeatedly picks the shard owning the globally
        minimal event, computes the conservative bound — the earliest key
        any other shard or the exchange could contribute — and lets that
        shard drain every event strictly below the bound in one batch.
        A cross-shard push below the bound aborts the batch (rescan), so
        the processed sequence is *exactly* the single-heap order.
        """
        stop_event, sentinel, deadline = self._run_preamble(until)
        if stop_event is not None and sentinel is None:
            return self._run_epilogue(stop_event, deadline)
        heaps = self._heaps
        pop = heapq.heappop
        halted = False
        try:
            while not halted:
                best, best_key = self._min_head()
                if best is None or best_key[0] > deadline:
                    break
                # Conservative bound: second-minimal head across the other
                # shards and the exchange.  The chosen shard may run ahead
                # up to (but not including) this key without a rescan.
                bound = _INF_KEY
                for shard in range(self.n_shards):
                    if shard != best:
                        heap = heaps[shard]
                        if heap:
                            key = heap[0][:3]
                            if key < bound:
                                bound = key
                if self._exchange:
                    key = self._exchange[0][:3]
                    if key < bound:
                        bound = key
                heap = heaps[best]
                self._active_shard = best
                self._drain_bound = bound
                self._drain_dirty = False
                while heap:
                    head = heap[0]
                    if head[0] > deadline or not (head[:3] < bound):
                        break
                    time, _, _, event = pop(heap)
                    self._now = time
                    self._event_count += 1
                    event._process()
                    if sentinel is not None and sentinel.stop:
                        halted = True
                        break
                    if self._drain_dirty:
                        break
        except StopSimulation:
            pass
        finally:
            self._drain_bound = _INF_KEY
        return self._run_epilogue(stop_event, deadline)


def run_sharded(
    workers: Sequence[Callable[[], Any]] | Sequence[tuple[Callable[..., Any], tuple]],
    processes: int = 0,
) -> list[Any]:
    """Run independent shard workers, optionally across OS processes, and
    return their results as one deterministically ordered batch list.

    ``workers`` is a sequence of ``(function, args)`` pairs; each function
    must be importable at module top level (the ``multiprocessing`` spawn
    contract) and fully determined by its arguments, so the merged output
    is identical whichever executor ran it.  ``processes`` is the worker
    pool size: ``0``/``1`` runs inline (serial), ``N > 1`` fans out to a
    pool of N OS processes.  Results are returned in *submission order* —
    the deterministic merge — regardless of completion order.
    """
    calls: list[tuple[Callable[..., Any], tuple]] = []
    for worker in workers:
        if callable(worker):
            calls.append((worker, ()))
        else:
            fn, args = worker
            calls.append((fn, tuple(args)))
    if processes and processes > 1 and len(calls) > 1:
        import multiprocessing as mp

        try:
            ctx = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            ctx = mp.get_context("spawn")
        with ctx.Pool(processes=min(processes, len(calls))) as pool:
            handles = [pool.apply_async(fn, args) for fn, args in calls]
            return [handle.get() for handle in handles]
    return [fn(*args) for fn, args in calls]
