"""Same-seed fingerprint helpers for the scenario-layer refactor safety net.

The ``repro.scenario`` composition layer rebuilt every use case and the
builtin experiment catalog; the refactor invariant is **byte-identical
same-seed physics**.  This module computes stable SHA-256 fingerprints so
``tests/test_scenario_fingerprints.py`` can pin them and assert they never
drift.  Coverage differs by workload kind:

* the eleven use-case workloads (run via their ``*Scenario`` classes) hash
  metrics at full float precision **plus** the complete trace stream
  (time / kind / source / fields) — any RNG-draw-order or event-order drift
  that reaches an observable shows up.  Their simulators' processed-event
  counts are returned beside the digest, not hashed into it: the count
  measures how the work is cut into events, which a scheduling change (say,
  one delivery event per frame instead of one per receiver) may move on
  purpose while every observable stays identical;
* the nine registry workloads (run via ``execute_run``) hash the metrics
  dict only, since factories do not expose their internals — coarse drift
  shows up, but a draw-order change with identical summary metrics would
  not.

Run ``python tests/fingerprint_util.py`` to print the current tables (used
to refresh the pinned constants when a *deliberate* change is made).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any, Dict, Optional, Tuple

#: A workload's fingerprint: its physics digest and, for use-case runs, the
#: simulator's processed-event count (``None`` for registry runs).
Fingerprint = Tuple[str, Optional[int]]


def canonical(obj: Any) -> Any:
    """A JSON-safe projection preserving full float precision via ``repr``."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return canonical(dataclasses.asdict(obj))
    if isinstance(obj, enum.Enum):
        return canonical(obj.value)
    if isinstance(obj, dict):
        return {str(key): canonical(value) for key, value in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [canonical(value) for value in obj]
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return repr(obj)
    return repr(obj)


def digest(payload: Any) -> str:
    blob = json.dumps(canonical(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def trace_rows(trace) -> list:
    return [
        (record.time, record.kind, record.source, sorted(record.fields.items()))
        for record in trace
    ]


def scenario_payload(scenario, results) -> Dict[str, Any]:
    """The physics fingerprint payload of a use-case scenario object."""
    return {
        "metrics": canonical(results),
        "trace": canonical(trace_rows(scenario.trace)),
    }


def scenario_fingerprint(scenario) -> Fingerprint:
    """Run ``scenario``; its physics digest and processed-event count."""
    results = scenario.run()
    return digest(scenario_payload(scenario, results)), scenario.simulator.events_processed


# --------------------------------------------------------------------------
# The pinned workloads: small but stochastic-path-covering configurations.
# --------------------------------------------------------------------------


def run_platoon(variant: str) -> Fingerprint:
    from repro.usecases.acc import ArchitectureVariant, PlatoonConfig, PlatoonScenario

    scenario = PlatoonScenario(
        PlatoonConfig(
            followers=3,
            duration=20.0,
            seed=2,
            variant=ArchitectureVariant(variant),
            interference_bursts=((8.0, 3.0),),
        )
    )
    return scenario_fingerprint(scenario)


def run_intersection(mode: str) -> Fingerprint:
    from repro.usecases.intersection import (
        IntersectionConfig,
        IntersectionMode,
        IntersectionScenario,
    )

    scenario = IntersectionScenario(
        IntersectionConfig(
            mode=IntersectionMode(mode),
            vehicles_per_approach=3,
            duration=60.0,
            seed=7,
            light_failure_time=None if mode == "infrastructure" else 15.0,
        )
    )
    return scenario_fingerprint(scenario)


def run_lane_change(coordinated: bool) -> Fingerprint:
    from repro.usecases.lane_change import LaneChangeConfig, LaneChangeScenario

    scenario = LaneChangeScenario(
        LaneChangeConfig(coordinated=coordinated, duration=30.0, seed=11)
    )
    return scenario_fingerprint(scenario)


def run_avionics(use_case: str, collaborative: bool = True) -> Fingerprint:
    from repro.usecases.avionics import AvionicsConfig, AvionicsScenario, AvionicsUseCase

    scenario = AvionicsScenario(
        AvionicsConfig(
            use_case=AvionicsUseCase(use_case),
            intruder_collaborative=collaborative,
            duration=200.0,
            seed=3,
        )
    )
    return scenario_fingerprint(scenario)


def run_registry(name: str, seed: int, **params) -> Fingerprint:
    """Metrics-only fingerprint of one registry scenario run."""
    from repro.experiments.registry import get_scenario
    from repro.experiments.runner import execute_run
    from repro.experiments.spec import RunSpec

    spec = get_scenario(name)
    record = execute_run(
        spec, RunSpec(scenario=spec.name, params=params, seed=seed, index=0)
    )
    if not record.ok:
        raise RuntimeError(f"{name} failed: {record.error}")
    return digest(record.metrics), None


#: name -> zero-argument callable producing the :data:`Fingerprint`.
WORKLOADS = {
    "platoon/karyon": lambda: run_platoon("karyon"),
    "platoon/always_cooperative": lambda: run_platoon("always_cooperative"),
    "platoon/never_cooperative": lambda: run_platoon("never_cooperative"),
    "intersection/infrastructure": lambda: run_intersection("infrastructure"),
    "intersection/vtl_fallback": lambda: run_intersection("vtl_fallback"),
    "intersection/uncoordinated": lambda: run_intersection("uncoordinated"),
    "lane_change/coordinated": lambda: run_lane_change(True),
    "lane_change/uncoordinated": lambda: run_lane_change(False),
    "avionics/in_trail": lambda: run_avionics("in_trail"),
    "avionics/crossing": lambda: run_avionics("crossing"),
    "avionics/level_change": lambda: run_avionics("level_change", collaborative=False),
    "sensor_validity": lambda: run_registry("sensor_validity", seed=0, samples=200),
    "r2t_mac/r2t": lambda: run_registry("r2t_mac", seed=0, use_r2t=True, duration=20.0),
    "r2t_mac/csma": lambda: run_registry("r2t_mac", seed=0, use_r2t=False, duration=20.0),
    "tdma_convergence": lambda: run_registry("tdma_convergence", seed=1, churn=True),
    "pulse_alignment": lambda: run_registry("pulse_alignment", seed=1),
    "event_channels/admission": lambda: run_registry(
        "event_channels", seed=0, admission=True, duration=5.0
    ),
    "event_channels/open": lambda: run_registry(
        "event_channels", seed=0, admission=False, duration=5.0
    ),
    "demo/safety_kernel": lambda: run_registry("demo/safety_kernel", seed=1),
    "demo/random_walk": lambda: run_registry("demo/random_walk", seed=2),
}


def compute_all() -> Dict[str, Dict[str, Any]]:
    """Both pinned tables: ``PINNED`` digests and use-case ``EVENT_COUNTS``."""
    digests: Dict[str, str] = {}
    event_counts: Dict[str, int] = {}
    for name, runner in WORKLOADS.items():
        digests[name], events = runner()
        if events is not None:
            event_counts[name] = events
    return {"PINNED": digests, "EVENT_COUNTS": event_counts}


def main() -> None:
    """Print the fingerprint tables as JSON.

    Every set-of-node-ids iteration that feeds RNG draws or message
    scheduling is sorted (PR 4), so fingerprints are reproducible across
    interpreters regardless of ``PYTHONHASHSEED`` — no fixed hash seed is
    needed to refresh or compare them.
    """
    print(json.dumps(compute_all(), indent=2))


if __name__ == "__main__":
    main()
