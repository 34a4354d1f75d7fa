"""The simulator benchmark: one command, three workloads, cold runs.

    python3 perfbench/run.py --workload {ebank-crowd|city-day|swarm} \\
        --seed N --seconds S --trace {0|1}

Run from the repository root; the library is imported from ``src/``.

``--trace 0`` starts fresh interpreters one after another (never two at
once): at least three, and more while another run would still end
within ``--seconds``.  It reports the median of each host metric over
the runs:

* ``wall_s`` — host seconds for the whole workload;
* ``setup_s`` — host seconds before each deployment's first
  ``Simulator.run`` (scenario generation, ``build()``, key generation),
  summed over the scenarios of ``swarm``;
* ``events_per_s`` — events processed per host second inside
  ``Simulator.run``;
* ``peak_rss_mb`` — the run's peak resident set size.

Host seconds are scaled to a host of fixed speed: each run times a fixed
reference loop every 0.2 s alongside the workload, and its seconds are
multiplied by ``REF_HOST_S / ref_s`` (``ref_s`` the loop's mean time in
that run; a set-up phase uses the timings at its own start and end).
The host slows the loop and the workload alike, so this cancels the
host's drift.  The unscaled ``raw_`` figures and ``ref_s`` are printed
beside them.  ``setup_s`` is the median over the full runs and, for the
single-deployment workloads, six more runs that stop when set-up ends.

It also reports the simulated metrics, which are a function of the seed
alone and must be identical in every run:

* ``sim_task_p50_s`` / ``sim_task_tail_s`` — completed tasks' latency
  from their scheduled arrival.  The p50 is each deployment's median,
  averaged over deployments (swarm runs many); the tail is the highest
  of p99, p90 and p50 that leaves at least ten samples beyond it;
* ``sim_online_s_mean`` — the paper's connection time: per device, the
  connection seconds in the telemetry export divided by its tasks,
  averaged over devices;
* ``task_ok_ratio`` — tasks completed over tasks attempted.

``--trace 1`` makes one untraced and one traced run and reports the
per-layer ledger: calls, self seconds and share of the traced wall time
for every layer, the layers' own counters, the memory four layers hold
when the workload ends, and the tracing overhead.

Every run is checked: the workload's own checks, identical event counts
and sha256 of the simulated outputs across the runs of one invocation,
and in a traced invocation that every layer the workload uses fired,
that no module kept an unwrapped binding and that the layers' self times
cover the traced wall time.  The last line of standard output is one JSON
object; the exit code is non-zero if any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from ledger import LAYERS, MEMORY_OWNERS, REF_HOST_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_RUNS = 3
#: Hard stop for one invocation, in host seconds.
BUDGET_S = 170.0
#: Layers a workload does not exercise; every other layer must fire.
IDLE_LAYERS = {
    "ebank-crowd": {"simtest.invariants"},
    "city-day": {"simtest.invariants"},
    "swarm": set(),
}
#: Set-up-only cold runs per untraced invocation, besides the full runs,
#: for the workloads whose set-up is one short phase; a swarm run already
#: sums sixty set-ups.
SETUP_PROBES = {"ebank-crowd": 6, "city-day": 6, "swarm": 0}
#: Largest share of the traced wall time the layer spans may leave uncovered.
MAX_UNCOVERED_SHARE = 0.05

HOST_METRICS = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
#: Unscaled host figures, printed beside the metrics.
RAW_HOST = (
    ("raw_wall_s", "s"),
    ("raw_setup_s", "s"),
    ("raw_events_per_s", "1/s"),
    ("ref_s", "s"),
)
SIM_METRICS = (
    ("sim_task_p50_s", "s"),
    ("sim_task_tail_s", "s"),
    ("sim_online_s_mean", "s"),
    ("task_ok_ratio", "ratio"),
)


class RunFailed(Exception):
    """A child interpreter failed or overran the budget."""


def run_child(workload: str, seed: int, mode: str, deadline: float) -> dict[str, Any]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), mode]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{mode} run exceeded the {BUDGET_S:.0f}s budget") from exc
    if proc.returncode != 0:
        raise RunFailed(f"{mode} run exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def consistency_failures(runs: list[dict[str, Any]]) -> list[str]:
    """Failed checks of each run, plus any run that disagrees with the first."""
    failures = []
    first = runs[0]
    for k, run in enumerate(runs):
        failures += [f"run {k} ({run['mode']}): {c}" for c in run["failed_checks"]]
        if (run["events"], run["digest"], run["sim"]) != (
            first["events"], first["digest"], first["sim"]
        ):
            failures.append(
                f"run {k} ({run['mode']}): events {run['events']} sha256 "
                f"{run['digest'][:16]} differ from run 0 ({first['events']}, "
                f"{first['digest'][:16]})"
            )
    return failures


def failed_runs(runs: list[dict[str, Any]], failures: list[str]) -> int:
    return sum(any(f.startswith(f"run {k} ") for f in failures) for k in range(len(runs)))


def describe(runs: list[dict[str, Any]]) -> None:
    first = runs[0]
    tallies = ", ".join(f"{k} {v}" for k, v in sorted(first["tallies"].items()))
    print(f"events {first['events']}  sha256 {first['digest']}")
    print(f"tallies: {tallies}")


def end_to_end(args: argparse.Namespace) -> tuple[list[dict], dict[str, Any]]:
    start = time.monotonic()
    deadline = start + BUDGET_S
    probes = [
        run_child(args.workload, args.seed, "setup", deadline)
        for _ in range(SETUP_PROBES[args.workload])
    ]
    runs: list[dict[str, Any]] = []
    while True:
        t0 = time.monotonic()
        runs.append(run_child(args.workload, args.seed, "plain", deadline))
        now = time.monotonic()
        # Start another run only if it should end within --seconds (or
        # the minimum is not met yet) and well inside the hard budget.
        if now + 1.5 * (now - t0) > deadline:
            break
        if len(runs) >= MIN_RUNS and now + (now - t0) > start + args.seconds:
            break
    n = len(runs)
    metrics: dict[str, Any] = {}
    print(f"{args.workload} seed {args.seed}: {n} cold runs and {len(probes)} "
          f"set-up-only runs in {time.monotonic() - start:.1f} s")
    describe(runs)
    for name, unit in HOST_METRICS + RAW_HOST:
        sample = runs + probes if name.endswith("setup_s") else runs
        values = [r[name] for r in sample]
        if (name, unit) in HOST_METRICS:
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        print(f"  {name:18s} {statistics.median(values):14.6g} {unit:5s} "
              f"median of {len(sample)} runs: {' '.join(f'{v:.4g}' for v in values)}")
    print(f"  host seconds are scaled by {REF_HOST_S} s / ref_s, the reference "
          f"loop's mean time in the run ({sum(r['ref_samples'] for r in runs)} "
          f"timings over {n} runs); set-up phases by the timings at their ends")
    sim = runs[0]["sim"]
    for name, unit in SIM_METRICS:
        metrics[name] = {"value": sim[name], "unit": unit}
    samples = sim["latency_samples"]
    print(f"  {'sim_task_p50_s':18s} {sim['sim_task_p50_s']:14.6g} s     "
          f"p50 of {samples} completed tasks, per deployment")
    print(f"  {'sim_task_tail_s':18s} {sim['sim_task_tail_s']:14.6g} s     "
          f"p{sim['tail_percentile']:g} of {samples} completed tasks")
    print(f"  {'sim_online_s_mean':18s} {sim['sim_online_s_mean']:14.6g} s     "
          f"mean over {sim['online_devices']} devices")
    print(f"  {'task_ok_ratio':18s} {sim['task_ok_ratio']:14.6g} ratio "
          f"{samples} of {sim['tasks_attempted']} tasks")
    return runs, metrics


def layer_ledger(args: argparse.Namespace) -> tuple[list[dict], dict[str, Any], list[str]]:
    deadline = time.monotonic() + BUDGET_S
    plain = run_child(args.workload, args.seed, "plain", deadline)
    traced = run_child(args.workload, args.seed, "traced", deadline)
    runs = [plain, traced]
    ledger = traced["ledger"]
    wall = traced["wall_s"]
    counts = ledger["counts"]
    problems = []

    idle = IDLE_LAYERS[args.workload]
    silent = [layer for layer in LAYERS if layer not in idle and not ledger["calls"][layer]]
    if silent:
        problems.append(f"layer wrappers never fired: {', '.join(silent)}")
    if ledger["unpatched"]:
        problems.append(f"unwrapped bindings: {', '.join(ledger['unpatched'])}")
    covered = sum(ledger["self_s"].values())
    uncovered = (wall - covered) / wall
    if abs(uncovered) > MAX_UNCOVERED_SHARE:
        problems.append(
            f"layer self times cover {covered:.3f} s of {wall:.3f} s traced wall time"
        )

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics: dict[str, Any] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    print(f"{args.workload} seed {args.seed}: per-layer ledger, traced wall {wall:.3f} s, "
          f"untraced {plain['raw_wall_s']:.3f} s")
    describe(runs)
    print(f"  {'layer':22s} {'calls':>9s} {'self_s':>9s} {'share':>7s} {'setup_s':>9s}")
    for layer in LAYERS:
        calls, self_s = ledger["calls"][layer], ledger["self_s"][layer]
        put(f"{layer}.calls", calls, "count")
        put(f"{layer}.self_s", self_s, "s")
        put(f"{layer}.share", self_s / wall, "ratio")
        print(f"  {layer:22s} {calls:9d} {self_s:9.4f} {self_s / wall:7.2%} "
              f"{ledger['setup_self_s'][layer]:9.4f}")
    print(f"  {'(uncovered)':22s} {'':9s} {wall - covered:9.4f} {uncovered:7.2%}")
    setup_terms = dict(ledger["setup_self_s"])
    setup_terms["crypto.keygen"] = counts.get("crypto.keygen_s", 0.0)
    setup_terms["crypto"] -= setup_terms["crypto.keygen"]
    top = max(setup_terms, key=setup_terms.get)
    print(f"  largest set-up term: {top} ({setup_terms[top]:.4f} s of "
          f"{traced['setup_s']:.4f} s set-up)")

    for key, unit in (
        ("simnet.topology.route_misses", "count"),
        ("simnet.topology.topology_changes", "count"),
        ("compressor.encodes", "count"),
        ("compressor.decodes", "count"),
        ("compressor.bytes_in", "B"),
        ("compressor.bytes_out", "B"),
        ("xmlcodec.bytes", "B"),
        ("mas.serializer.bytes", "B"),
        ("crypto.keygen_calls", "count"),
        ("crypto.keygen_s", "s"),
        ("core.admission.attempts", "count"),
        ("core.admission.sheds", "count"),
        ("telemetry.spans", "count"),
        ("telemetry.exporters.bytes", "B"),
        ("simnet.kernel.events", "count"),
    ):
        put(key, counts.get(key, 0), unit)
    put("compressor.memo_hit_ratio",
        1.0 - ratio(counts.get("compressor.memo_misses", 0),
                    counts.get("compressor.compress_calls", 0)), "ratio")
    put("core.admission.admit_ratio",
        1.0 - ratio(counts.get("core.admission.sheds", 0),
                    counts.get("core.admission.attempts", 0)), "ratio")
    for layer in MEMORY_OWNERS:
        put(f"{layer}.retained_mb", ledger["retained_mb"][layer], "MB")
    put("trace_overhead_ratio", wall / plain["raw_wall_s"], "ratio")
    put("uncovered_share", uncovered, "ratio")
    extras = [k for k in metrics if not k.endswith((".calls", ".self_s", ".share"))]
    for key in extras:
        print(f"  {key:36s} {metrics[key]['value']:14.6g} {metrics[key]['unit']}")
    return runs, metrics, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no library at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            runs, metrics, problems = layer_ledger(args)
        else:
            (runs, metrics), problems = end_to_end(args), []
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    failures = consistency_failures(runs) + problems
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(runs),
        "failed": max(failed_runs(runs, failures), 1 if problems else 0),
        "metrics": metrics,
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
