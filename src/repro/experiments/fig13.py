"""Figure 13 — transaction completion times across four trials.

Two panels:

* **13a (client-server)**: completion time grows to ~minutes at 10
  transactions and is visibly unstable across trials — every transaction's
  round trips resample the wireless latency, so variance accumulates.
* **13b (PDAgent)**: completion time (= PI upload + result download, the
  paper's definition) stays within a few seconds for any batch size and is
  nearly identical across trials.

A "trial" is a distinct master seed: same topology and workload, different
latency-jitter draws — precisely what re-running the physical experiment
four times did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..telemetry.exporters import TraceCollector
from .report import format_series, format_table
from .scenario import build_scenario, run_pdagent_batch

__all__ = ["Fig13Result", "run_fig13"]

DEFAULT_NS = tuple(range(1, 11))
DEFAULT_TRIALS = 4


@dataclass
class Fig13Result:
    """Per-trial completion-time series for both approaches."""

    ns: list[int]
    #: trial index → series over ns
    pdagent: list[list[float]] = field(default_factory=list)
    client_server: list[list[float]] = field(default_factory=list)

    def trial_variance(self, series: list[list[float]]) -> list[float]:
        """Across-trial variance at each n (the paper's instability signal)."""
        arr = np.asarray(series)
        return [float(v) for v in arr.var(axis=0)]

    def to_csv(self) -> str:
        """CSV form: one row per (approach, trial, n) with completion time."""
        from .report import to_csv

        rows = []
        for approach, series in (
            ("client-server", self.client_server),
            ("pdagent", self.pdagent),
        ):
            for trial, values in enumerate(series):
                for n, value in zip(self.ns, values):
                    rows.append([approach, trial + 1, n, value])
        return to_csv(["approach", "trial", "n_transactions", "completion_s"], rows)

    def render(self) -> str:
        lines = []
        for title, series in (
            ("Figure 13a: Client-Server completion time (s)", self.client_server),
            ("Figure 13b: PDAgent completion time (s)", self.pdagent),
        ):
            headers = ["#txns"] + [f"trial {i + 1}" for i in range(len(series))] + [
                "variance"
            ]
            variances = self.trial_variance(series)
            rows = []
            for j, n in enumerate(self.ns):
                rows.append([n] + [series[t][j] for t in range(len(series))] + [variances[j]])
            lines.append(format_table(headers, rows, title=title))
            lines.append("")
        for t, series in enumerate(self.client_server):
            lines.append(format_series(f"client-server trial {t + 1}", self.ns, series))
        for t, series in enumerate(self.pdagent):
            lines.append(format_series(f"pdagent trial {t + 1}", self.ns, series))
        return "\n".join(lines)


def run_fig13(
    base_seed: int = 100,
    ns: tuple[int, ...] = DEFAULT_NS,
    trials: int = DEFAULT_TRIALS,
    collector: Optional[TraceCollector] = None,
) -> Fig13Result:
    """Regenerate both panels of Figure 13.

    With a ``collector``, each cell's telemetry is captured under a
    ``fig13/<approach>/trial=<t>/n=<n>`` run label.
    """
    result = Fig13Result(ns=list(ns))
    for trial in range(trials):
        seed = base_seed + trial
        pdagent_series = []
        cs_series = []
        for n in ns:
            scenario = build_scenario(seed=seed)
            metrics = run_pdagent_batch(scenario, n)
            pdagent_series.append(metrics.completion_time)
            if collector is not None:
                collector.add_run(
                    f"fig13/pdagent/trial={trial + 1}/n={n}", scenario.network
                )

            scenario = build_scenario(seed=seed)
            runner = scenario.client_server_runner()
            proc = scenario.sim.process(runner.run(scenario.transactions(n)))
            cs = scenario.sim.run(until=proc)
            cs_series.append(cs.completion_time)
            if collector is not None:
                collector.add_run(
                    f"fig13/client-server/trial={trial + 1}/n={n}", scenario.network
                )
        result.pdagent.append(pdagent_series)
        result.client_server.append(cs_series)
    return result

