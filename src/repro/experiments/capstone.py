"""The capstone skeleton: the parts the capstone experiments share.

The overload, fleet and churn capstones run one world: the §4 e-banking
environment (two banks) behind one or more gateways, with every PDA on one
shared access-point router.  Each reports a *paired sweep*: two modes of
the platform at every device population, same seed.  This module holds
that skeleton once:

* :func:`ebank_world` builds the world on :func:`repro.apps.app_world`
  and pre-subscribes the devices, and :func:`deploy_ebank` deploys one
  task's transfer in it, its stops from :func:`repro.apps.stops`;
* :func:`run_to_completion` runs a workload and registers the run with
  the ``--trace`` collector;
* :func:`dispatch_tally` counts dispatched agents and duplicates;
* :class:`Column` declares one result column for the table and the CSV,
  and :class:`PairedSweep` renders a sweep from its run class's columns
  (the diversity and streaming tables use the columns too).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Generator, Iterable, Optional, Sequence, Union

from ..apps import app_world, make_transactions, stops
from ..core import Deployment, PDAgentConfig, PDAgentPlatform
from ..simnet.primitives import Event
from ..telemetry.exporters import TraceCollector
from .report import format_table, to_csv

__all__ = [
    "ACCESS_POINT",
    "BANKS",
    "Column",
    "Latencies",
    "PairedSweep",
    "PopulationRun",
    "dispatch_tally",
    "deploy_ebank",
    "ebank_world",
    "csv_table",
    "percentile",
    "render_table",
    "run_to_completion",
    "table_rows",
]

BANKS = ("bank-a", "bank-b")

#: All PDAs share one access-point router; cutting its backbone uplink
#: severs every device<->gateway path at once while the wired side — the
#: gateways, the banks, the agents already touring — keeps working.
ACCESS_POINT = "ap"


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile, ``p`` in [0, 1] (nan when empty)."""
    if not values:
        return float("nan")
    xs = sorted(values)
    k = (len(xs) - 1) * p
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def ebank_world(
    seed: int,
    n_devices: int,
    config: PDAgentConfig,
    gateways: tuple[str, ...],
    name: str,
) -> Deployment:
    """Build the world and pre-subscribe devices ``pda-0`` … ``pda-<n-1>``.

    Each device fetches the gateway list and subscribes to e-banking
    through ``gateways[0]`` before the measured phase starts; ``name``
    prefixes the set-up process names.
    """
    builder = app_world(seed, gateways, BANKS, (ACCESS_POINT,), config)
    for k in range(n_devices):
        builder.add_device(
            f"pda-{k}", profile="PDA", wireless="WLAN", attach_to=ACCESS_POINT
        )
    deployment = builder.build()
    sim = deployment.sim

    def setup(k: int) -> Generator:
        platform = deployment.platform(f"pda-{k}")
        yield from platform.selector.refresh_list()
        yield from platform.subscribe("ebanking", gateway=gateways[0])
        return True

    procs = [
        sim.process(setup(k), name=f"{name}-prewarm:{k}")
        for k in range(n_devices)
    ]
    sim.run(until=sim.all_of(procs))
    return deployment


def deploy_ebank(platform: PDAgentPlatform, gateway: str, task_id: str) -> Generator:
    """Process: deploy one transfer touring both banks through ``gateway``
    under ``task_id``; returns the dispatch handle."""
    handle = yield from platform.deploy(
        "ebanking",
        {"transactions": make_transactions(list(BANKS), 1)},
        stops=stops("ebanking", BANKS),
        gateway=gateway,
        task_id=task_id,
    )
    return handle


def run_to_completion(
    deployment: Deployment,
    procs: list[Event],
    collector: Optional[TraceCollector],
    label: str,
) -> None:
    """Run until every process in ``procs`` ends, then close the run out
    into ``collector`` (when tracing) under ``label``."""
    sim = deployment.sim
    sim.run(until=sim.all_of(procs))
    if collector is not None:
        collector.add_run(label, deployment.network)


def dispatch_tally(
    deployment: Deployment, gateways: Iterable[str]
) -> tuple[int, int]:
    """``(dispatches, duplicate_dispatches)`` over ``gateways``' tickets.

    Fleet migration is at-least-once: a lost ack may leave the same ticket
    id on two members.  A dispatch is therefore a distinct dispatched
    ticket id of a task, and every dispatch of a task beyond its first is
    a duplicate.
    """
    per_task: dict[str, set[str]] = {}
    for gw in gateways:
        for t in deployment.gateway(gw).tickets():
            if t.agent_id and t.task_id:
                per_task.setdefault(t.task_id, set()).add(t.ticket_id)
    dispatches = sum(len(ids) for ids in per_task.values())
    return dispatches, dispatches - len(per_task)


@dataclass(frozen=True)
class Column:
    """One result column, declared once for the table and the CSV.

    ``value`` is an attribute name or a getter; it defaults to the
    attribute named ``csv``.  A column without a ``header`` is CSV-only;
    one without a ``csv`` name is table-only.  The table prints floats to
    two decimals; the CSV keeps full precision.
    """

    header: Optional[str]
    csv: Optional[str]
    value: Union[str, Callable[[Any], Any], None] = None

    def of(self, item: Any) -> Any:
        value = self.value or self.csv
        if isinstance(value, str):
            return getattr(item, value)
        return value(item)


def table_rows(columns: Sequence[Column], items: Iterable[Any]) -> list[list]:
    shown = [c for c in columns if c.header]
    return [[c.of(item) for c in shown] for item in items]


def render_table(
    columns: Sequence[Column], items: Sequence[Any], title: str
) -> str:
    headers = [c.header for c in columns if c.header]
    return format_table(headers, table_rows(columns, items), title=title)


def csv_table(columns: Sequence[Column], items: Iterable[Any]) -> str:
    fields = [c for c in columns if c.csv]
    return to_csv(
        [c.csv for c in fields], ([c.of(item) for c in fields] for item in items)
    )


class Latencies:
    """Median and tail of a ``latencies`` list of seconds."""

    latencies: list[float]

    @property
    def p50(self) -> float:
        return percentile(self.latencies, 0.50)

    @property
    def p99(self) -> float:
        return percentile(self.latencies, 0.99)


@dataclass
class PopulationRun:
    """What every capstone run reports about one (population, mode)."""

    mode: str
    seed: int
    n_devices: int
    completed: int

    #: The columns every paired sweep opens with.
    COLUMNS: ClassVar[tuple[Column, ...]] = (
        Column("devices", "devices", "n_devices"),
        Column("mode", "mode"),
        Column("completed", None, lambda r: f"{r.completed}/{r.n_devices}"),
        Column(None, "completed"),
        Column(None, "completion_rate"),
    )

    @property
    def completion_rate(self) -> float:
        return self.completed / self.n_devices if self.n_devices else 0.0


@dataclass
class PairedSweep:
    """Two modes of one capstone at every population, same seeds.

    A subclass names its two run lists as dataclass fields in ``MODES``
    (first mode first), the run class whose ``COLUMNS`` make the table and
    the CSV, the table title, and a one-line :meth:`headline` about the
    largest population.
    """

    MODES: ClassVar[tuple[str, str]]
    RUN: ClassVar[type]
    TITLE: ClassVar[str]

    seed: int
    populations: tuple[int, ...]

    @classmethod
    def sweep(
        cls,
        run: Callable[..., PopulationRun],
        seed: int,
        populations: tuple[int, ...],
        collector: Optional[TraceCollector],
    ) -> "PairedSweep":
        """``run(seed, n, first_mode, collector=...)`` for both modes at
        every population, first mode first."""
        runs: dict[str, list] = {mode: [] for mode in cls.MODES}
        for n in populations:
            for first, mode in zip((True, False), cls.MODES):
                runs[mode].append(run(seed, n, first, collector=collector))
        return cls(seed=seed, populations=tuple(populations), **runs)

    def pairs(self) -> list[tuple[Any, Any]]:
        first, second = self.MODES
        return list(zip(getattr(self, first), getattr(self, second)))

    def _runs(self) -> list[Any]:
        return [run for pair in self.pairs() for run in pair]

    def rows(self) -> list[list]:
        return table_rows(self.RUN.COLUMNS, self._runs())

    def headline(self, first: Any, second: Any) -> str:
        raise NotImplementedError

    def render(self) -> str:
        table = render_table(self.RUN.COLUMNS, self._runs(), self.TITLE)
        return f"{table}\n{self.headline(*self.pairs()[-1])}"

    def to_csv(self) -> str:
        return csv_table(self.RUN.COLUMNS, self._runs())
