"""One cold run of one workload, in the fresh interpreter it was started in.

    PYTHONPATH=src python3 perfbench/child.py <workload> <seed> <plain|traced|setup>

Each run starts a new interpreter because three process-wide memos (the
compressed-frame memo, the seeded-keypair cache and the XML name cache)
would otherwise carry over from one run to the next, and a second swarm
run in one process would skip a third of its work.

``plain`` times the workload with only :class:`ledger.HostClock`
installed, calibrated against the reference loop, and reports host
seconds scaled to the reference host (the ``raw_`` figures are
unscaled).  ``setup`` does the same but stops at the first
``Simulator.run`` and reports only the set-up time.  ``traced`` reports
unscaled seconds, adds the per-layer :class:`ledger.Ledger` and, once
the workload has ended, measures the memory four layers still hold.  The
last line of standard output is one JSON object with the run's
measurements, simulated metrics and the sha256 of its simulated outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import sys
from typing import Any

from ledger import LAYERS, HostClock, Ledger, import_library, retained_mb
from workloads import WORKLOADS, WorkloadRun

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.0, 90.0, 50.0)
#: Samples a tail percentile must leave beyond it.
TAIL_MIN_BEYOND = 10


def percentile(ordered: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(1, math.ceil(len(ordered) * p / 100)) - 1]


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND:
            return p
    return TAIL_PERCENTILES[-1]


def online_seconds(run: WorkloadRun) -> dict[str, float]:
    """Per device: connection seconds from the telemetry export's records."""
    online = {device: 0.0 for device in run.device_tasks}
    for prefix, jsonl in run.exports:
        for line in jsonl.splitlines():
            if '"type":"connection"' not in line:
                continue
            rec = json.loads(line)
            device = prefix + rec["initiator"]
            if device in online:
                online[device] += rec["closed"] - rec["opened"]
    return online


def median_per_deployment(run: WorkloadRun) -> float:
    """Each deployment's median task latency, averaged over deployments.

    With one deployment this is the plain median.  Over the swarm's many
    small scenarios, a pooled median would sit in the gap between the
    GPRS and WLAN latency modes and jump by up to 2x between neighbouring
    seed windows; the mean of per-scenario medians does not.
    """
    by_deployment: dict[int, list[float]] = {}
    for o in run.outcomes:
        if o.ok:
            by_deployment.setdefault(o.deployment, []).append(o.latency)
    medians = [percentile(sorted(v), 50.0) for v in by_deployment.values()]
    return sum(medians) / len(medians)


def simulated_metrics(run: WorkloadRun) -> dict[str, Any]:
    latencies = sorted(o.latency for o in run.outcomes if o.ok)
    if not latencies:
        raise RuntimeError("no task completed")
    tail = tail_percentile(len(latencies))
    online = online_seconds(run)
    return {
        "sim_task_p50_s": median_per_deployment(run),
        "sim_task_tail_s": percentile(latencies, tail),
        "tail_percentile": tail,
        "latency_samples": len(latencies),
        "sim_online_s_mean": sum(
            online[d] / run.device_tasks[d] for d in online
        ) / len(online),
        "online_devices": len(online),
        "task_ok_ratio": len(latencies) / len(run.outcomes),
        "tasks_attempted": len(run.outcomes),
    }


def digest(run: WorkloadRun) -> str:
    """sha256 of everything the simulation produced."""
    h = hashlib.sha256()
    for prefix, jsonl in run.exports:
        h.update(prefix.encode())
        h.update(jsonl.encode())
    for o in run.outcomes:
        h.update(f"{o.device}|{o.ok}|{o.latency!r}|{o.detail}\n".encode())
    h.update(json.dumps(run.tallies, sort_keys=True).encode())
    return h.hexdigest()


def peak_rss_mb() -> float:
    raw = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux and bytes on macOS.
    return raw / (1024.0 * 1024.0) if sys.platform == "darwin" else raw / 1024.0


def ledger_report(ledger: Ledger, run: WorkloadRun) -> dict[str, Any]:
    counts = dict(ledger.counts)
    counts["telemetry.exporters.bytes"] = sum(len(j.encode()) for _, j in run.exports)
    counts["simnet.kernel.events"] = run.events
    return {
        "calls": {layer: ledger.calls.get(layer, 0) for layer in LAYERS},
        "self_s": {layer: ledger.self_s.get(layer, 0.0) for layer in LAYERS},
        "setup_self_s": {layer: ledger.setup_self_s.get(layer, 0.0) for layer in LAYERS},
        "counts": counts,
        "unpatched": ledger.unpatched(),
        "retained_mb": retained_mb(),
    }


class _SetupDone(Exception):
    """The first ``Simulator.run`` of a set-up-only run."""


def setup_only(workload: str, seed: int) -> dict[str, Any]:
    """Time the workload's set-up and stop at its first ``Simulator.run``."""
    from repro.simnet.kernel import Simulator

    def stop(sim, *args, **kwargs):
        raise _SetupDone

    Simulator.run = stop
    clock = HostClock(calibrate=True)
    clock.install()
    try:
        WORKLOADS[workload](seed, clock.setup_begins)
    except _SetupDone:
        pass
    else:
        raise SystemExit(f"{workload} never reached Simulator.run")
    clock.stop()
    return {
        "mode": "setup",
        "setup_s": clock.scaled_setup_s,
        "raw_setup_s": clock.setup_s,
        "ref_samples": len(clock.ref_samples),
    }


def main(argv: list[str]) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    if workload not in WORKLOADS or mode not in ("plain", "traced", "setup"):
        raise SystemExit(
            f"usage: child.py {{{'|'.join(WORKLOADS)}}} SEED plain|traced|setup"
        )
    modules = import_library()
    if mode == "setup":
        print(json.dumps(setup_only(workload, seed), sort_keys=True))
        return 0
    clock = HostClock(calibrate=mode == "plain")
    clock.install()
    ledger = None
    if mode == "traced":
        ledger = Ledger(clock, modules)
        ledger.install()

    t0 = clock.now()
    run = WORKLOADS[workload](seed, clock.setup_begins)
    wall_s = clock.now() - t0
    clock.stop()

    layers = ledger_report(ledger, run) if ledger is not None else None
    result = {
        "workload": workload,
        "seed": seed,
        "mode": mode,
        "wall_s": wall_s * clock.scale,
        "setup_s": clock.scaled_setup_s,
        "events": run.events,
        "events_per_s": run.events / (clock.run_s * clock.scale),
        "raw_wall_s": wall_s,
        "raw_setup_s": clock.setup_s,
        "raw_events_per_s": run.events / clock.run_s,
        "ref_s": clock.ref_s if clock.ref_samples else None,
        "ref_samples": len(clock.ref_samples),
        "peak_rss_mb": peak_rss_mb(),
        "digest": digest(run),
        "sim": simulated_metrics(run),
        "tallies": run.tallies,
        "failed_checks": run.failed_checks,
        "ledger": layers,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
