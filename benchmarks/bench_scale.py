"""Population-scale benchmark and regression gate.

Three jobs in one file:

* ``test_scale_*`` — pytest-collectable benchmarks that run a small
  population sweep and gate against the committed ``BENCH_scale.json``
  baseline: the simulated timeline must be *exactly* reproduced
  (``events_processed`` equality — determinism is free to check), and
  kernel throughput must not regress more than ``MAX_REGRESSION``
  (20%) against the baseline's events/sec.
* ``check_large_baseline`` — static checks on the committed 5,000-device
  row: its exact timeline and a 2x events/sec floor over the old
  single-heap row.
* ``python benchmarks/bench_scale.py`` — standalone CLI that runs the same
  gate without pytest (used by the CI benchmark job).

The throughput gate deliberately compares against a *committed* number, not
a same-run rebuild: wall-clock drift between the machine that produced the
baseline and the machine running CI is absorbed by the generous 20% margin,
while order-of-magnitude regressions (an accidentally quadratic hot path,
a dropped cache) still fail loudly.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments.scale import run_population  # noqa: E402

#: Population used for the gate — small enough for CI, large enough that
#: per-event costs dominate the (one-time) deployment build.
GATE_POPULATION = 100
#: Allowed events/sec slowdown vs the committed baseline.
MAX_REGRESSION = 0.20

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_scale.json")


#: Events/sec of the 5,000-device single-heap row as first committed, before
#: the codec hot-path pass and the leaf-aware router; the committed row must
#: stay ``LARGE_ROW_SPEEDUP_FLOOR``x above it.
OLD_SINGLE_HEAP_5000_EVENTS_PER_SEC = 4370.5
LARGE_ROW_SPEEDUP_FLOOR = 2.0
#: The large committed row and the event count of its seed-0 timeline.
LARGE_POPULATION = 5000
LARGE_ROW_EVENTS = 610011


def load_baseline(population: int = GATE_POPULATION) -> dict:
    """The committed baseline entry for ``population`` (or raise)."""
    with open(BASELINE_PATH, encoding="utf-8") as fh:
        doc = json.load(fh)
    for entry in doc["populations"]:
        if entry["population"] == population:
            return entry
    raise KeyError(f"no baseline entry for population {population}")


def run_gate(population: int = GATE_POPULATION, seed: int = 0) -> dict:
    """Run one population and compare it to the committed baseline.

    Returns a report dict; raises ``AssertionError`` on any gate failure.
    """
    baseline = load_baseline(population)
    result = run_population(population, seed=seed)

    # Determinism gate: the simulated timeline is seed-deterministic, so the
    # event count must match the baseline *exactly* — any drift means a
    # behaviour change snuck in alongside (or disguised as) a perf change.
    assert result.events_processed == baseline["events_processed"], (
        f"events_processed drifted: baseline {baseline['events_processed']}, "
        f"got {result.events_processed} — the simulation timeline changed"
    )
    assert result.tasks_completed == baseline["tasks_completed"]

    # Throughput gate: generous margin for machine variance, fatal for
    # algorithmic regressions.
    floor = baseline["events_per_sec"] * (1.0 - MAX_REGRESSION)
    assert result.events_per_sec >= floor, (
        f"kernel throughput regressed >{MAX_REGRESSION:.0%}: baseline "
        f"{baseline['events_per_sec']:.0f} ev/s, floor {floor:.0f}, "
        f"got {result.events_per_sec:.0f}"
    )
    return {
        "population": population,
        "baseline_events_per_sec": baseline["events_per_sec"],
        "events_per_sec": result.events_per_sec,
        "events_processed": result.events_processed,
        "wall_per_task_s": result.wall_per_task_s,
        "peak_rss_mb": result.peak_rss_mb,
    }


def check_large_baseline() -> dict:
    """Static checks on the committed 5,000-device row of ``BENCH_scale.json``.

    * it replays the seed-0 timeline exactly (``LARGE_ROW_EVENTS`` events,
      every task completed);
    * its events/sec is at least ``LARGE_ROW_SPEEDUP_FLOOR``x
      ``OLD_SINGLE_HEAP_5000_EVENTS_PER_SEC``.
    """
    row = load_baseline(LARGE_POPULATION)
    assert row["events_processed"] == LARGE_ROW_EVENTS, (
        f"committed 5000-device row has {row['events_processed']} events, "
        f"expected {LARGE_ROW_EVENTS}"
    )
    assert row["tasks_completed"] == LARGE_POPULATION, (
        f"committed 5000-device row completed {row['tasks_completed']} "
        f"tasks, expected {LARGE_POPULATION}"
    )
    speedup = row["events_per_sec"] / OLD_SINGLE_HEAP_5000_EVENTS_PER_SEC
    assert speedup >= LARGE_ROW_SPEEDUP_FLOOR, (
        f"committed 5000-device row is only {speedup:.2f}x the "
        f"{OLD_SINGLE_HEAP_5000_EVENTS_PER_SEC} ev/s old single-heap row "
        f"(floor {LARGE_ROW_SPEEDUP_FLOOR}x)"
    )
    return {"events_per_sec_5000": row["events_per_sec"], "speedup_5000": speedup}


# -- pytest entry points -------------------------------------------------------


def test_scale_events_deterministic():
    """Same seed + population → identical simulated timeline, twice."""
    a = run_population(GATE_POPULATION, seed=0)
    b = run_population(GATE_POPULATION, seed=0)
    assert a.events_processed == b.events_processed
    assert a.sim_time_s == b.sim_time_s
    assert a.tasks_completed == b.tasks_completed == GATE_POPULATION


def test_scale_gate_vs_committed_baseline(emit):
    report = run_gate()
    emit(
        f"scale gate: {report['events_per_sec']:.0f} ev/s vs baseline "
        f"{report['baseline_events_per_sec']:.0f} ev/s "
        f"({report['events_processed']} events, "
        f"{report['wall_per_task_s'] * 1e3:.2f} ms/task, "
        f"{report['peak_rss_mb']:.1f} MB RSS)"
    )


def test_scale_population_benchmark(benchmark):
    result = benchmark.pedantic(
        run_population, args=(GATE_POPULATION,), kwargs={"seed": 0}, rounds=1
    )
    assert result.tasks_completed == GATE_POPULATION


def test_scale_committed_large_row(emit):
    report = check_large_baseline()
    emit(
        f"committed 5000-device row OK: "
        f"{report['events_per_sec_5000']:.0f} ev/s, "
        f"{report['speedup_5000']:.2f}x the old single-heap row"
    )


# -- standalone CLI (CI) -------------------------------------------------------

if __name__ == "__main__":
    report = run_gate()
    print(json.dumps(report, indent=2, sort_keys=True))
    baseline_report = check_large_baseline()
    print(json.dumps(baseline_report, indent=2, sort_keys=True))
    print("scale gate: OK")
