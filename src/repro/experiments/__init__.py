"""Experiment harness: regenerates every figure and claim of the paper.

* :mod:`~repro.experiments.scenario` — the §4 evaluation environment;
* :mod:`~repro.experiments.fig12` — internet connection time, 3 approaches;
* :mod:`~repro.experiments.fig13` — completion times over 4 trials;
* :mod:`~repro.experiments.claims` — code-size (C1) and footprint (C2);
* :mod:`~repro.experiments.ablations` — selection / codec / security /
  adapter ablations (A1–A4);
* :mod:`~repro.experiments.extensions` — device resources, link and
  bank-count sweeps, client-agent-server, device classes (E1–E5);
* :mod:`~repro.experiments.capstone` — the skeleton the capstones share:
  the e-banking access-point world, the dispatch tally, the paired-sweep
  table and its declared columns;
* every world starts from :func:`repro.apps.app_world`, and every
  itinerary comes from :func:`repro.apps.stops`;
* capstones: :mod:`~repro.experiments.faults` (the Fig. 12 workload
  under a fault schedule), :mod:`~repro.experiments.overload` (dispatch
  storms through one gateway, protected vs not),
  :mod:`~repro.experiments.fleet` (roamed retries, fleet tier vs
  baseline), :mod:`~repro.experiments.streaming` (resumable sessions vs
  store-and-forward), :mod:`~repro.experiments.churn` (rolling restart of
  every fleet member) and :mod:`~repro.experiments.diversity` (a diurnal
  + flash-crowd day over a three-gateway fleet, full application mix);
* :mod:`~repro.experiments.scale` — the device-population perf sweep;
* :mod:`~repro.experiments.runner` — the ``pdagent-experiments`` CLI.
"""

from .stats import flatness, growth_ratio, linear_fit, mean_ci
from .faults import (
    FaultComparison,
    FaultRunResult,
    reference_schedule,
    run_client_server_under_faults,
    run_fault_comparison,
    run_pdagent_under_faults,
)
from .diversity import (
    ClassStats,
    DiversityResult,
    diversity_config,
    run_diversity,
)
from .overload import (
    OverloadRunResult,
    OverloadSweepResult,
    overload_schedule,
    run_overload,
    run_overload_sweep,
)
from .scenario import (
    EvaluationScenario,
    PDAgentRunMetrics,
    build_scenario,
    run_pdagent_batch,
)

__all__ = [
    "linear_fit",
    "flatness",
    "mean_ci",
    "growth_ratio",
    "EvaluationScenario",
    "PDAgentRunMetrics",
    "build_scenario",
    "run_pdagent_batch",
    "FaultRunResult",
    "FaultComparison",
    "reference_schedule",
    "run_pdagent_under_faults",
    "run_client_server_under_faults",
    "run_fault_comparison",
    "OverloadRunResult",
    "OverloadSweepResult",
    "overload_schedule",
    "run_overload",
    "run_overload_sweep",
    "ClassStats",
    "DiversityResult",
    "diversity_config",
    "run_diversity",
]
