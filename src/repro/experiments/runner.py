"""Experiment CLI: regenerate every paper result from one entry point.

Usage (installed as ``pdagent-experiments``)::

    pdagent-experiments all          # everything below
    pdagent-experiments fig12        # Figure 12 series
    pdagent-experiments fig13        # Figure 13 trials + variances
    pdagent-experiments faults       # Fig. 12 workload under a fault schedule
    pdagent-experiments overload     # dispatch storm: protected vs unprotected
    pdagent-experiments fleet        # roamed retries: fleet tier vs baseline
    pdagent-experiments streaming    # resumable sessions vs store-and-forward
    pdagent-experiments churn        # rolling restart of every fleet member
    pdagent-experiments diversity    # diurnal + flash-crowd day, full app mix
    pdagent-experiments scale        # device-population kernel sweep
                                     #   (not part of "all" — it is the perf
                                     #   bench, see BENCH_scale.json)
    pdagent-experiments claims       # C1 code sizes, C2 footprint
    pdagent-experiments ablations    # A1-A4
    pdagent-experiments extensions   # E1-E4

``--csv DIR`` additionally writes ``<experiment>.csv`` (full precision)
into ``DIR`` for external plotting, for fig12, fig13, overload, fleet,
churn, diversity and scale.

``--max-n N`` makes a run smaller and faster: it caps the transaction
sweep of fig12/fig13 at N, and the device population of overload, fleet,
churn, diversity and scale at N.

``--trace PATH`` captures the full telemetry stream (spans, instants,
fault/connection ledgers, metric series) of every traced experiment run
into PATH — newline-delimited JSON by default, or the Chrome trace_event
format (open in Perfetto / ``chrome://tracing``) when PATH ends in
``.json`` or ``--trace-format chrome`` is given.  Inspect the JSONL with
``pdagent-trace summary PATH``.  Tracing covers fig12, fig13, faults,
overload, fleet, streaming, churn and diversity (the simulations behind
the figures and the capstones); scale is the perf bench, and
claims/ablations/extensions run many heterogeneous micro-benchmarks, so
none of these is traced.
"""

from __future__ import annotations

import argparse
import os
import sys

from ..telemetry.exporters import TraceCollector
from . import (
    ablations,
    churn,
    claims,
    diversity,
    extensions,
    faults,
    fig12,
    fig13,
    fleet,
    overload,
    scale,
    streaming,
)

__all__ = ["main"]


def _ns(args) -> tuple[int, ...]:
    """fig12/fig13 transaction-count sweep, capped by --max-n."""
    upper = args.max_n if args.max_n else 10
    return tuple(range(1, upper + 1))


def _populations(args, default: tuple[int, ...]) -> tuple[int, ...]:
    """A population sweep capped by --max-n (just --max-n if none fits)."""
    if not args.max_n:
        return default
    return tuple(n for n in default if n <= args.max_n) or (args.max_n,)


def _printed(result):
    print(result.render())
    return result


def _sweep(run_sweep, default: tuple[int, ...]):
    """A population sweep ``run_sweep(seed, populations, collector)``."""
    return lambda a, c: _printed(run_sweep(a.seed, _populations(a, default), c))


def _diversity_devices(args) -> int:
    """The diversity day's population, capped by --max-n."""
    if not args.max_n:
        return diversity.DEFAULT_DEVICES
    return min(diversity.DEFAULT_DEVICES, max(args.max_n, 1))


#: name → run(args, collector).  A run prints its result; a result with a
#: ``to_csv()`` is also written to ``<name>.csv`` under --csv.  Every run
#: that takes the collector registers its simulations for --trace.
_EXPERIMENTS = {
    "fig12": lambda a, c: _printed(fig12.run_fig12(seed=a.seed, ns=_ns(a), collector=c)),
    "fig13": lambda a, c: _printed(
        fig13.run_fig13(base_seed=a.seed + 100, ns=_ns(a), collector=c)
    ),
    "faults": lambda a, c: _printed(faults.run_fault_comparison(seed=a.seed, collector=c)),
    "overload": _sweep(overload.run_overload_sweep, overload.DEFAULT_POPULATIONS),
    "fleet": _sweep(fleet.run_fleet_sweep, fleet.DEFAULT_POPULATIONS),
    "streaming": lambda a, c: _printed(
        streaming.run_streaming_comparison(seed=a.seed, collector=c)
    ),
    "churn": _sweep(churn.run_churn_sweep, churn.DEFAULT_POPULATIONS),
    "diversity": lambda a, c: _printed(
        diversity.run_diversity(seed=a.seed, n_devices=_diversity_devices(a), collector=c)
    ),
    "scale": _sweep(
        lambda seed, populations, c: scale.run_scale_sweep(populations, seed=seed),
        scale.DEFAULT_POPULATIONS,
    ),
    "claims": lambda a, c: claims.main(),
    "ablations": lambda a, c: ablations.main(),
    "extensions": lambda a, c: extensions.main(),
}

#: What ``all`` runs, in order: everything but the scale sweep, which is
#: the perf bench (see BENCH_scale.json).
_ALL = tuple(name for name in _EXPERIMENTS if name != "scale")


def _run(name: str, args, collector) -> None:
    result = _EXPERIMENTS[name](args, collector)
    if args.csv and hasattr(result, "to_csv"):
        path = os.path.join(args.csv, f"{name}.csv")
        with open(path, "w") as fh:
            fh.write(result.to_csv())
        print(f"[csv] wrote {path}")


def _write_trace(collector: TraceCollector, path: str, fmt: str) -> None:
    if fmt == "auto":
        fmt = "chrome" if path.endswith(".json") else "jsonl"
    if fmt == "chrome":
        collector.write_chrome(path)
    else:
        collector.write_jsonl(path)
    print(f"[trace] wrote {path} ({fmt}, {len(collector.runs)} run(s))")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pdagent-experiments",
        description="Regenerate the PDAgent paper's evaluation results",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_EXPERIMENTS) + ["all"],
        help="which result to regenerate",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="base master seed (default 0)"
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        default=None,
        help="also write figure data as CSV into DIR",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="capture the telemetry stream of traced experiments into PATH",
    )
    parser.add_argument(
        "--trace-format",
        choices=("auto", "jsonl", "chrome"),
        default="auto",
        help="trace file format (auto: chrome when PATH ends in .json)",
    )
    parser.add_argument(
        "--max-n",
        type=int,
        default=None,
        help=(
            "cap the fig12/fig13 transaction sweep, or a capstone's device "
            "population, at N (smaller, faster runs)"
        ),
    )
    args = parser.parse_args(argv)
    if args.csv:
        os.makedirs(args.csv, exist_ok=True)
    collector = TraceCollector() if args.trace else None
    if args.experiment == "all":
        for name in _ALL:
            print(f"\n### {name} " + "#" * (60 - len(name)))
            _run(name, args, collector)
    else:
        _run(args.experiment, args, collector)
    if collector is not None:
        if collector.runs:
            _write_trace(collector, args.trace, args.trace_format)
        else:
            print(f"[trace] {args.experiment} produces no traced runs; nothing written")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
