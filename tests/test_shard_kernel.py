"""Run-loop ordering and bugfix checks, kept under their historical names.

These once compared a sharded kernel against the single-heap one.  Only the
single-heap :class:`Simulator` remains, so each check now runs on it alone:
same-timestamp FIFO across many processes, a stop event whose callbacks
drain before the halt, a failed event re-raised by ``run(until=...)``, and
invalid delays rejected at schedule time.
"""

from __future__ import annotations

import pytest

from repro.simnet import Simulator


def _kernels():
    """The kernels under test: the single heap."""
    return [("single", lambda: Simulator())]


class TestOrderingParity:
    @pytest.mark.parametrize("label,make", _kernels())
    def test_same_timestamp_fifo(self, label, make):
        sim = make()
        log = []

        def worker(tag):
            yield sim.timeout(1.0)
            log.append(tag)

        for i in range(9):
            sim.process(worker(i))
        sim.run()
        assert log == list(range(9)), label


class TestShardedRunLoopBugfixParity:
    """The kernel run-loop bugfixes, driven by several processes at once."""

    def test_stop_event_callbacks_drain_before_halt(self):
        sim = Simulator()
        stop = sim.event()
        log = []

        def waiter():
            yield sim.timeout(0.0)
            stop.add_callback(lambda ev: log.append("late-callback"))

        sim.process(waiter())

        def firer():
            yield sim.timeout(1.0)
            stop.succeed("done")

        sim.process(firer())
        assert sim.run(until=stop) == "done"
        assert log == ["late-callback"]

    def test_run_until_already_processed_failed_event_raises(self):
        sim = Simulator()
        ev = sim.event()
        ev.fail(ValueError("boom"))
        sim.run()
        with pytest.raises(ValueError, match="boom"):
            sim.run(until=ev)

    def test_invalid_delays_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.timeout(-1.0)
        with pytest.raises(ValueError):
            sim.timeout(float("nan"))
        with pytest.raises(ValueError):
            sim._schedule_event(sim.event(), delay=-0.5)
        with pytest.raises(ValueError):
            sim._schedule_event(sim.event(), delay=float("nan"))
