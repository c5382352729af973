"""``repro.experiments`` — scenario registry, parameter sweeps, campaigns.

The experiment subsystem turns ad-hoc benchmark scripts into declarative,
parallel, resumable campaigns:

* :mod:`repro.experiments.spec` — :class:`ScenarioSpec` with typed
  parameters, :class:`ParameterGrid` cartesian sweeps, canonical run keys;
* :mod:`repro.experiments.registry` — decorator-based scenario registry
  (the paper's use cases and E2-E5 experiments register as builtins);
* :mod:`repro.experiments.runner` — :class:`ParallelCampaignRunner`, which
  runs a campaign on the backend its caller built, with per-run error
  capture and deterministic result ordering;
* :mod:`repro.experiments.store` — JSONL persistence keyed by
  ``(scenario, params, seed)`` with resume-skip of completed runs;
* :mod:`repro.experiments.perf` — :func:`~repro.experiments.perf.calibrate`,
  the machine-speed probe ``perfbench`` records with every run;
* :mod:`repro.experiments.cli` — ``python -m repro.experiments
  list|run|report|worker|merge|cache``.

Execution is pluggable through :class:`ExecutionBackend`: in-process
serial, or the spool backend in :mod:`repro.distributed`, whose worker
processes run on this host or many (the package also provides the
content-addressed result cache shared across campaigns).
"""

from repro.experiments.spec import (
    Parameter,
    ParameterGrid,
    RunSpec,
    ScenarioSpec,
    canonical_key,
    content_cache_key,
)
from repro.experiments.registry import (
    REGISTRY,
    ScenarioRegistry,
    UnknownScenarioError,
    get_scenario,
    load_builtin_scenarios,
    scenario,
)
from repro.experiments.runner import (
    CampaignResult,
    ExecutionBackend,
    InProcessBackend,
    ParallelCampaignRunner,
    RunRecord,
    aggregate_records,
    execute_run,
    execute_run_with_retry,
    grouped_rows,
)
from repro.experiments.store import ResultStore

__all__ = [
    "Parameter",
    "ParameterGrid",
    "RunSpec",
    "ScenarioSpec",
    "canonical_key",
    "content_cache_key",
    "REGISTRY",
    "ScenarioRegistry",
    "UnknownScenarioError",
    "get_scenario",
    "load_builtin_scenarios",
    "scenario",
    "CampaignResult",
    "ExecutionBackend",
    "InProcessBackend",
    "ParallelCampaignRunner",
    "RunRecord",
    "aggregate_records",
    "execute_run",
    "execute_run_with_retry",
    "grouped_rows",
    "ResultStore",
]
