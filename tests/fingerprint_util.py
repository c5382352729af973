"""Same-seed fingerprint helpers for the scenario-layer refactor safety net.

The ``repro.scenario`` composition layer rebuilt every use case and the
builtin experiment catalog; the refactor invariant is **byte-identical
same-seed physics**.  This module computes stable SHA-256 fingerprints so
``tests/test_scenario_fingerprints.py`` can pin them and assert they never
drift.  Coverage differs by workload kind:

* the fourteen use-case workloads (run via their ``*Scenario`` classes) hash
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
to refresh the pinned constants when a *deliberate* change is made),
``python tests/fingerprint_util.py --diff`` to print only the pinned entries
that moved, as old → new, and exit 1 if any did, or ``--controller-checks``
to print how often each use case's inaccessibility controllers ran.
"""

from __future__ import annotations

import dataclasses
import enum
import argparse
import hashlib
import json
import sys
from typing import Any, Dict, List, Optional, Tuple

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


def run_urban_grid() -> Fingerprint:
    from repro.usecases.urban_grid import UrbanGridConfig, UrbanGridScenario

    scenario = UrbanGridScenario(
        UrbanGridConfig(
            streets=3,
            followers=3,
            duration=6.0,
            seed=0,
            brake_start=3.0,
            brake_stagger=1.2,
        )
    )
    return scenario_fingerprint(scenario)


def run_corridor() -> Fingerprint:
    from repro.usecases.corridor import CorridorConfig, CorridorScenario

    scenario = CorridorScenario(CorridorConfig(intersections=3, duration=18.0, seed=0))
    return scenario_fingerprint(scenario)


def run_mixed_airspace() -> Fingerprint:
    from repro.usecases.mixed_airspace import MixedAirspaceConfig, MixedAirspaceScenario

    scenario = MixedAirspaceScenario(
        MixedAirspaceConfig(ground_nodes=8, duration=40.0, seed=0)
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
    # The three shared-spectrum cells of perfbench's ``spectrum_cells``, with
    # its parameters, at seed 0.
    "urban_grid": run_urban_grid,
    "corridor": run_corridor,
    "mixed_airspace": run_mixed_airspace,
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


def controller_checks(name: str) -> int:
    """How often workload ``name``'s inaccessibility controllers checked
    their monitors.

    Counted by wrapping ``InaccessibilityController._check``, so the count
    means the same whether each check is an event of its own or runs inside
    its monitor's tick: moving the check into the tick lowers a use case's
    ``EVENT_COUNTS`` entry by exactly this number.
    """
    from repro.network.inaccessibility import InaccessibilityController

    original = InaccessibilityController._check
    calls = 0

    def counting(self) -> None:
        nonlocal calls
        calls += 1
        original(self)

    InaccessibilityController._check = counting
    try:
        WORKLOADS[name]()
    finally:
        InaccessibilityController._check = original
    return calls


def compute_all() -> Dict[str, Dict[str, Any]]:
    """Both pinned tables: ``PINNED`` digests and use-case ``EVENT_COUNTS``."""
    digests: Dict[str, str] = {}
    event_counts: Dict[str, int] = {}
    for name, runner in WORKLOADS.items():
        digests[name], events = runner()
        if events is not None:
            event_counts[name] = events
    return {"PINNED": digests, "EVENT_COUNTS": event_counts}


def moved_entries(
    current: Dict[str, Dict[str, Any]], pinned: Dict[str, Dict[str, Any]]
) -> List[str]:
    """One ``table name: old → new`` line per entry of ``current`` that
    differs from ``pinned``; counts also carry their delta."""
    lines = []
    for table in ("PINNED", "EVENT_COUNTS"):
        old_table, new_table = pinned[table], current[table]
        for name in sorted(set(old_table) | set(new_table)):
            old, new = old_table.get(name), new_table.get(name)
            if old == new:
                continue
            line = f"{table} {name}: {old} → {new}"
            if isinstance(old, int) and isinstance(new, int):
                line += f" ({new - old:+d})"
            lines.append(line)
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    """Print the fingerprint tables as JSON, or with ``--diff`` only the
    pinned entries that moved (exit status 1 if any did).

    Every set-of-node-ids iteration that feeds RNG draws or message
    scheduling is sorted (PR 4), so fingerprints are reproducible across
    interpreters regardless of ``PYTHONHASHSEED`` — no fixed hash seed is
    needed to refresh or compare them.
    """
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--diff",
        action="store_true",
        help="print only the PINNED and EVENT_COUNTS entries that moved",
    )
    group.add_argument(
        "--controller-checks",
        action="store_true",
        help="print each use case's inaccessibility-controller checks",
    )
    args = parser.parse_args(argv)
    if args.controller_checks:
        from test_scenario_fingerprints import EVENT_COUNTS

        print(json.dumps({name: controller_checks(name) for name in EVENT_COUNTS}, indent=2))
        return 0
    current = compute_all()
    if not args.diff:
        print(json.dumps(current, indent=2))
        return 0
    from test_scenario_fingerprints import EVENT_COUNTS, PINNED

    lines = moved_entries(current, {"PINNED": PINNED, "EVENT_COUNTS": EVENT_COUNTS})
    print("\n".join(lines) if lines else "no pinned entry moved")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
