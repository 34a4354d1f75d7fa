"""Population-scale harness: N devices through a gateway fleet.

The paper's evaluation (§4) runs one PDA; the ROADMAP north star is a
platform that "serves millions of users".  This harness measures the
*simulator's* capacity to get there: a population sweep (100 → 5,000
devices, each running one full e-banking task through a shared gateway
fleet) reporting

* **kernel events/sec** — raw discrete-event throughput,
* **wall-clock per simulated task** — how expensive one user task is to
  simulate,
* **peak RSS** — memory high-water mark,

so performance regressions in any hot path (kernel, transport, codec,
crypto, telemetry) show up as a number, not an anecdote.  Results are
written as ``BENCH_scale.json`` — the bench trajectory's perf baseline,
which CI compares against (see ``benchmarks/bench_scale.py``).

Determinism: the sweep is seeded like every other experiment; for a fixed
(seed, population) the simulated timeline — ``events_processed``, task
completions, every connection record — is bit-reproducible.  Only the
wall-clock/RSS measurements vary run to run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Generator, Optional

from ..apps import app_world, make_transactions, stops
from ..core import PDAgentConfig

__all__ = [
    "PopulationResult",
    "ScaleSweepResult",
    "run_population",
    "run_scale_sweep",
    "DEFAULT_POPULATIONS",
]

DEFAULT_POPULATIONS = (100, 1000, 5000)
#: One gateway per this many devices (minimum 2 — it is a *fleet*).
DEVICES_PER_GATEWAY = 500
#: Simulated seconds between consecutive device task starts.  Small enough
#: that thousands of tasks overlap, large enough to avoid a thundering herd.
ARRIVAL_SPACING_S = 0.05


@dataclass
class PopulationResult:
    """Measurements for one population point."""

    population: int
    gateways: int
    tasks_completed: int
    events_processed: int
    sim_time_s: float
    build_wall_s: float
    run_wall_s: float
    events_per_sec: float
    wall_per_task_s: float
    peak_rss_mb: float

    def render(self) -> str:
        return (
            f"{self.population:>6} devices  {self.gateways:>3} gw  "
            f"{self.events_processed:>9} events  "
            f"{self.events_per_sec:>9.0f} ev/s  "
            f"{self.wall_per_task_s * 1e3:>8.2f} ms/task  "
            f"{self.peak_rss_mb:>7.1f} MB RSS"
        )


@dataclass
class ScaleSweepResult:
    """The full sweep, JSON-serialisable for ``BENCH_scale.json``."""

    seed: int
    populations: list[PopulationResult] = field(default_factory=list)

    def to_json(self) -> dict[str, Any]:
        return {
            "bench": "scale",
            "seed": self.seed,
            "populations": [asdict(r) for r in self.populations],
        }

    def to_csv(self) -> str:
        rows = ["population,gateways,events_processed,events_per_sec"]
        rows += [
            f"{r.population},{r.gateways},"
            f"{r.events_processed},{r.events_per_sec:.1f}"
            for r in self.populations
        ]
        return "\n".join(rows) + "\n"

    def render(self) -> str:
        lines = ["Population scale sweep", "=" * 78]
        lines += [r.render() for r in self.populations]
        return "\n".join(lines)


def _maxrss_bytes(platform: Optional[str] = None) -> int:
    """Process peak RSS in *bytes* (0 where the resource module is absent).

    ``getrusage().ru_maxrss`` is kibibytes on Linux (and other classic
    Unices) but **bytes** on macOS — normalise here, in one audited place,
    so every consumer works in bytes.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX fallback
        return 0
    raw = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if (platform or sys.platform) == "darwin":  # pragma: no cover - macOS
        return int(raw)
    return int(raw) * 1024


def _peak_rss_mb() -> float:
    """Process peak RSS in MiB."""
    return _maxrss_bytes() / (1024.0 * 1024.0)


def _reset_peak_rss() -> None:
    """Reset the process peak RSS to the current RSS, so the next
    :func:`_peak_rss_mb` reports this row's peak and not an earlier row's.

    Writing ``5`` to ``/proc/self/clear_refs`` resets ``VmHWM`` and with it
    ``ru_maxrss`` on Linux; elsewhere the reset is skipped.
    """
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def run_population(
    n_devices: int,
    seed: int = 0,
    n_gateways: Optional[int] = None,
    config: Optional[PDAgentConfig] = None,
    transactions_per_task: int = 1,
) -> PopulationResult:
    """Build and run one population; returns its measurements.

    Every device subscribes, deploys one e-banking agent to its assigned
    gateway (round-robin over the fleet — the balanced-fleet model; the
    nearest-RTT policy is exercised by the selection benches), waits for
    completion, and downloads the result.
    """
    if n_gateways is None:
        n_gateways = max(2, n_devices // DEVICES_PER_GATEWAY)
    _reset_peak_rss()
    t_build = time.perf_counter()
    gateways = [f"gw-{g}" for g in range(n_gateways)]
    sites = ("bank-a",)
    builder = app_world(seed, gateways, sites, config=config)
    for i in range(n_devices):
        builder.add_device(f"dev-{i}", wireless="WLAN")
    deployment = builder.build()
    build_wall = time.perf_counter() - t_build

    sim = deployment.sim
    txns = make_transactions(list(sites), transactions_per_task)
    itinerary = stops("ebanking", sites)
    completed = 0

    def one_task(i: int) -> Generator:
        nonlocal completed
        platform = deployment.platform(f"dev-{i}")
        gateway = f"gw-{i % n_gateways}"
        yield sim.timeout(i * ARRIVAL_SPACING_S)
        yield from platform.subscribe("ebanking", gateway=gateway)
        handle = yield from platform.deploy(
            "ebanking", {"transactions": txns}, stops=itinerary, gateway=gateway
        )
        yield deployment.gateway(handle.gateway).ticket(handle.ticket).completed
        yield from platform.collect(handle)
        completed += 1

    for i in range(n_devices):
        sim.process(one_task(i), name=f"scale-task-{i}")

    t_run = time.perf_counter()
    sim.run()
    run_wall = time.perf_counter() - t_run

    if completed != n_devices:
        raise RuntimeError(
            f"population {n_devices}: only {completed} tasks completed"
        )
    return PopulationResult(
        population=n_devices,
        gateways=n_gateways,
        tasks_completed=completed,
        events_processed=sim.events_processed,
        sim_time_s=sim.now,
        build_wall_s=build_wall,
        run_wall_s=run_wall,
        events_per_sec=sim.events_processed / run_wall if run_wall > 0 else 0.0,
        wall_per_task_s=run_wall / completed,
        peak_rss_mb=_peak_rss_mb(),
    )


def run_scale_sweep(
    populations: tuple[int, ...] = DEFAULT_POPULATIONS,
    seed: int = 0,
    config: Optional[PDAgentConfig] = None,
) -> ScaleSweepResult:
    """Run the device-population sweep at each size in ``populations``."""
    result = ScaleSweepResult(seed=seed)
    for population in populations:
        result.populations.append(
            run_population(population, seed=seed, config=config)
        )
    return result


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--populations",
        type=int,
        nargs="+",
        default=list(DEFAULT_POPULATIONS),
        help="device counts to sweep (default: %(default)s)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out",
        default=None,
        help="write the sweep result as JSON (e.g. BENCH_scale.json)",
    )
    args = parser.parse_args(argv)
    result = run_scale_sweep(tuple(args.populations), seed=args.seed)
    print(result.render())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
