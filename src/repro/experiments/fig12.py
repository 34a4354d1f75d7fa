"""Figure 12 — "Internet connection times: three different approaches".

The paper sweeps the number of transactions from 1 to 10 and plots the
device's total internet connection time for PDAgent, the client-server
model, and the web-based approach.  Expected shape:

* client-server and web-based grow roughly linearly (the user stays
  connected from request until the service completes);
* PDAgent stays flat: one short PI upload + one short result download,
  independent of the batch size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..telemetry.exporters import TraceCollector
from .report import format_series, format_table
from .scenario import build_scenario, run_pdagent_batch

__all__ = ["Fig12Result", "run_fig12"]

DEFAULT_NS = tuple(range(1, 11))


@dataclass
class Fig12Result:
    """The three series of Figure 12."""

    ns: list[int]
    pdagent: list[float] = field(default_factory=list)
    client_server: list[float] = field(default_factory=list)
    web_based: list[float] = field(default_factory=list)

    def rows(self) -> list[list]:
        return [
            [n, p, c, w]
            for n, p, c, w in zip(self.ns, self.pdagent, self.client_server, self.web_based)
        ]

    def to_csv(self) -> str:
        """CSV form of the figure (full precision, for plotting)."""
        from .report import to_csv

        return to_csv(
            ["n_transactions", "pdagent_s", "client_server_s", "web_based_s"],
            self.rows(),
        )

    def render(self) -> str:
        table = format_table(
            ["#txns", "PDAgent (s)", "Client-Server (s)", "Web-based (s)"],
            self.rows(),
            title="Figure 12: Internet connection time vs number of transactions",
        )
        lines = [
            table,
            "",
            format_series("PDAgent", self.ns, self.pdagent),
            format_series("Client-Server", self.ns, self.client_server),
            format_series("Web-based", self.ns, self.web_based),
        ]
        return "\n".join(lines)


def run_fig12(
    seed: int = 0,
    ns: tuple[int, ...] = DEFAULT_NS,
    collector: Optional[TraceCollector] = None,
) -> Fig12Result:
    """Regenerate Figure 12's three series.

    Every (approach, n) cell runs in a fresh scenario seeded from ``seed``
    so the ledger only contains that cell's traffic.  With a ``collector``,
    each cell's full telemetry is captured under a ``fig12/<approach>/n=<n>``
    run label.
    """
    result = Fig12Result(ns=list(ns))
    for n in ns:
        # --- PDAgent ---------------------------------------------------------
        scenario = build_scenario(seed=seed)
        metrics = run_pdagent_batch(scenario, n)
        result.pdagent.append(metrics.connection_time)
        if collector is not None:
            collector.add_run(f"fig12/pdagent/n={n}", scenario.network)
        # --- client-server ---------------------------------------------------
        scenario = build_scenario(seed=seed)
        runner = scenario.client_server_runner()
        proc = scenario.sim.process(runner.run(scenario.transactions(n)))
        cs = scenario.sim.run(until=proc)
        result.client_server.append(cs.connection_time)
        if collector is not None:
            collector.add_run(f"fig12/client-server/n={n}", scenario.network)
        # --- web-based --------------------------------------------------------
        scenario = build_scenario(seed=seed)
        runner = scenario.web_based_runner()
        proc = scenario.sim.process(runner.run(scenario.transactions(n)))
        wb = scenario.sim.run(until=proc)
        result.web_based.append(wb.connection_time)
        if collector is not None:
            collector.add_run(f"fig12/web-based/n={n}", scenario.network)
    return result

