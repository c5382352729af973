"""Per-scenario performance budgets (ROADMAP "Per-scenario perf budgets").

A *perf workload* is a pinned ``(scenario, seed, params)`` cell measured by
wall time (best of N repeats of ``spec.build``).  Workloads that pin a
``seeds`` tuple are *batch* workloads instead: the whole seed list is run
as one campaign through a named execution backend (``backend="vector"``
times the lockstep engine; the inline kernel provides its ``baseline_s``),
so the budget gates end-to-end batch throughput rather than one cell.
Budgets live in a JSON document (``BENCH_kernel.json`` at the repo root)
with, per workload:

``baseline_s``
    Wall time of the pre-optimisation (PR 1) simulation core, kept as the
    recorded perf trajectory.
``current_s``
    Wall time recorded on the machine that last refreshed the file.
``speedup``
    ``baseline_s / current_s`` on that machine.

The check scales the recorded ``current_s`` by the ratio of a deterministic
*calibration* workload measured now vs. when the file was refreshed, so the
regression gate (default: fail beyond +30%) transfers across machines of
different speeds.  ``benchmarks/perf_budgets.py`` is the pytest harness on
top; refresh with ``PERF_UPDATE=1``.
"""

from __future__ import annotations

import heapq
import json
import timeit
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from repro.experiments.registry import load_builtin_scenarios

#: Fail when a workload runs more than this much over its scaled budget.
DEFAULT_TOLERANCE = 0.30

#: Absolute slack added on top of the relative tolerance: millisecond-scale
#: workloads (e.g. the TDMA grid) cannot be gated at ±30% reliably on a busy
#: machine, but a real regression still dwarfs this.
ABSOLUTE_GRACE_S = 0.005


@dataclass(frozen=True)
class PerfWorkload:
    """A pinned scenario cell (or seed batch) whose wall time is budgeted.

    A non-empty ``seeds`` tuple turns the workload into a batch: it is
    measured as one full campaign over those seeds through the execution
    backend named by ``backend`` (``""``/``"inline"`` = the serial
    in-process kernel, ``"vector"`` = the lockstep vectorized engine),
    and ``seed`` is ignored.
    """

    key: str
    scenario: str
    seed: int
    params: Dict[str, Any] = field(default_factory=dict)
    repeats: int = 5
    description: str = ""
    seeds: Tuple[int, ...] = ()
    backend: str = ""


#: The budgeted workloads: the E1/E3/E4 acceptance scenarios plus the other
#: hot campaign cells (E2/E5), pinned so CI measures the same work every run.
PERF_WORKLOADS: Dict[str, PerfWorkload] = {
    workload.key: workload
    for workload in (
        PerfWorkload(
            key="e1_platoon_blackouts",
            scenario="platoon",
            seed=1,
            params={
                "followers": 3,
                "duration": 60.0,
                "blackout_start": 18.0,
                "blackout_duration": 8.0,
                "blackout2_start": 40.0,
                "blackout2_duration": 5.0,
            },
            repeats=3,
            description="E1: 4-vehicle platoon, 60 s, two communication blackouts",
        ),
        PerfWorkload(
            key="e2_sensor_validity",
            scenario="sensor_validity",
            seed=0,
            params={"fault_class": "stuck_at", "samples": 400},
            repeats=5,
            description="E2: stuck-at fault over 400 samples, 3 ranging replicas",
        ),
        PerfWorkload(
            key="e3_r2t_mac_bursts",
            scenario="r2t_mac",
            seed=0,
            params={"use_r2t": True, "duration": 30.0},
            repeats=5,
            description="E3: R2T-MAC safety messages through two interference bursts",
        ),
        PerfWorkload(
            key="e4_tdma_grid",
            scenario="tdma_convergence",
            seed=1,
            params={"rows": 12, "cols": 12, "slots": 60},
            repeats=10,
            description="E4: self-stabilising TDMA on a 12x12 grid",
        ),
        PerfWorkload(
            key="e5_event_channels",
            scenario="event_channels",
            seed=0,
            params={},
            repeats=5,
            description="E5: 6 publishers through QoS-admitted event channels",
        ),
        PerfWorkload(
            key="urban_grid",
            scenario="urban_grid",
            seed=1,
            params={"streets": 3, "followers": 3, "duration": 30.0},
            repeats=3,
            description="Urban grid: 3 platoon streets sharing one spectrum, 30 s",
        ),
        PerfWorkload(
            key="corridor",
            scenario="corridor",
            seed=9,
            params={"intersections": 3, "duration": 90.0},
            repeats=3,
            description="Corridor: 3-intersection green-wave arterial, 90 s",
        ),
        PerfWorkload(
            key="mixed_airspace",
            scenario="mixed_airspace",
            seed=3,
            params={"ground_nodes": 8, "duration": 200.0},
            repeats=3,
            description="Mixed airspace: RPV ADS-B over 8-node ground V2V load, 200 s",
        ),
        PerfWorkload(
            key="e2_batch64",
            scenario="sensor_validity",
            seed=0,
            params={"fault_class": "stuck_at"},
            repeats=3,
            description="E2 batch: 64 stuck-at seeds through the lockstep vector backend",
            seeds=tuple(range(64)),
            backend="vector",
        ),
        PerfWorkload(
            key="e4_batch64",
            scenario="tdma_convergence",
            seed=1,
            params={"rows": 12, "cols": 12, "slots": 60},
            repeats=3,
            description="E4 batch: 64 TDMA 12x12 grid seeds through the lockstep vector backend",
            seeds=tuple(range(1, 65)),
            backend="vector",
        ),
    )
}


def measure_workload(
    workload: Union[str, PerfWorkload],
    repeats: Optional[int] = None,
    backend: Optional[str] = None,
) -> float:
    """Best-of-``repeats`` wall time (seconds) of one workload, after a warm-up run.

    ``backend`` overrides a batch workload's pinned backend; the refresh
    path uses that to time the same seed batch on the inline kernel when
    recording a vector workload's ``baseline_s``.
    """
    if isinstance(workload, str):
        workload = PERF_WORKLOADS[workload]
    repeats = workload.repeats if repeats is None else repeats
    if workload.seeds:
        return _measure_campaign(workload, repeats, backend or workload.backend)
    spec = load_builtin_scenarios().get(workload.scenario)

    def run() -> None:
        spec.build(workload.seed, dict(workload.params))

    run()  # warm-up: imports, numpy first-call costs
    return min(timeit.repeat(run, number=1, repeat=max(1, repeats)))


def _measure_campaign(workload: PerfWorkload, repeats: int, backend_name: str) -> float:
    """Wall time of the full ``workload.seeds`` campaign through one backend."""
    from repro.experiments.runner import InProcessBackend, ParallelCampaignRunner

    registry = load_builtin_scenarios()

    def make_backend():
        if backend_name == "vector":
            from repro.vectorized import VectorBatchBackend

            return VectorBatchBackend()
        return InProcessBackend()

    def run() -> None:
        runner = ParallelCampaignRunner(jobs=1, registry=registry, backend=make_backend())
        runner.run(
            workload.scenario,
            params=dict(workload.params),
            seeds=list(workload.seeds),
        )

    run()  # warm-up: imports, numpy first-call costs
    return min(timeit.repeat(run, number=1, repeat=max(1, repeats)))


def measure_skewed_spool(
    workers: int = 2,
    cheap: Tuple[int, float] = (12, 0.3),
    heavy: Tuple[int, float] = (4, 1.6),
) -> Tuple[float, float]:
    """``(spool_wall_s, ideal_s)`` for a seeded-skew spool campaign.

    The spool is a plain pull queue at ``task_size=1``: each idle worker
    claims the next pending cell.

    Cells are *sleep-bound*: a deterministic fault plan injects a per-cell
    stall at ``worker.cell`` (``cheap`` cells get a short one, ``heavy``
    cells a long one), so concurrent workers overlap even on a single
    core and the measured ratio reflects scheduling quality rather than
    CPU contention.  ``ideal_s`` is the perfect-packing wall time: every
    task's claim-to-completion busy time (summed from the event log)
    divided by the worker count.  The spool store is also checked
    byte-identical against a ``jobs=1`` serial run of the same campaign
    (the fault plan only matches spool workers, so the serial run is not
    stalled).
    """
    import os
    import tempfile
    import time

    from repro.distributed import Spool, SpoolBackend
    from repro.experiments.runner import ParallelCampaignRunner
    from repro.experiments.store import ResultStore
    from repro.observability.events import read_events
    from repro.resilience import PLAN_ENV, FaultPlan, FaultRule

    cheap_cells, cheap_sleep_s = cheap
    heavy_cells, heavy_sleep_s = heavy
    seeds = list(range(1, cheap_cells + heavy_cells + 1))
    rules = [
        FaultRule(
            point="worker.cell",
            kind="sleep",
            match={"index": index},
            args={"seconds": heavy_sleep_s if index >= cheap_cells else cheap_sleep_s},
        )
        for index in range(len(seeds))
    ]
    registry = load_builtin_scenarios()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        serial_store = root / "serial.jsonl"
        ParallelCampaignRunner(
            jobs=1, registry=registry, store=ResultStore(serial_store)
        ).run("demo/random_walk", params={"steps": 100}, seeds=seeds)
        plan_path = FaultPlan(rules).save(root / "skew-plan.json")
        previous = os.environ.get(PLAN_ENV)
        os.environ[PLAN_ENV] = str(plan_path)
        try:
            backend = SpoolBackend(
                root / "spool",
                workers=workers,
                task_size=1,
                poll_interval=0.05,
                timeout=600.0,
            )
            spool_store = root / "spool.jsonl"
            started = time.monotonic()
            ParallelCampaignRunner(
                registry=registry, store=ResultStore(spool_store), backend=backend
            ).run("demo/random_walk", params={"steps": 100}, seeds=seeds)
            spool_wall_s = time.monotonic() - started
        finally:
            if previous is None:
                os.environ.pop(PLAN_ENV, None)
            else:
                os.environ[PLAN_ENV] = previous
        if serial_store.read_bytes() != spool_store.read_bytes():
            raise RuntimeError(
                "skewed spool campaign diverged from the jobs=1 serial store"
            )
        claimed_at: Dict[str, float] = {}
        busy_s = 0.0
        for event in read_events(Spool(root / "spool").events_path):
            if event["kind"] == "task_claimed":
                claimed_at[event["task"]] = event["ts"]
            elif event["kind"] == "task_completed" and event["task"] in claimed_at:
                busy_s += event["ts"] - claimed_at.pop(event["task"])
    return spool_wall_s, busy_s / workers


def calibrate(repeats: int = 3) -> float:
    """Deterministic machine-speed probe (seconds).

    Mixes the operations the simulator core leans on — heap churn, dict and
    float work, a small numpy draw — so budget scaling tracks the workload
    mix rather than raw clock speed.
    """

    def work() -> float:
        heap: list = []
        push = heapq.heappush
        pop = heapq.heappop
        accumulator = 0.0
        table: Dict[int, float] = {}
        for i in range(30_000):
            push(heap, ((i * 2654435761) % 1000003, i))
            table[i & 1023] = accumulator
            accumulator += 1e-6 * i
        while heap:
            accumulator += pop(heap)[0]
        rng = np.random.default_rng(0)
        accumulator += float(rng.standard_normal(10_000).sum())
        return accumulator

    work()
    return min(timeit.repeat(work, number=1, repeat=max(1, repeats)))


# ----------------------------------------------------------------- JSON store
def load_bench(path: Union[str, Path]) -> Dict[str, Any]:
    """Read a budgets document; an absent file yields an empty skeleton."""
    path = Path(path)
    if not path.exists():
        return {"meta": {}, "workloads": {}}
    with path.open("r", encoding="utf-8") as handle:
        data = json.load(handle)
    data.setdefault("meta", {})
    data.setdefault("workloads", {})
    return data


def save_bench(path: Union[str, Path], data: Dict[str, Any]) -> None:
    with Path(path).open("w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def record_current(
    data: Dict[str, Any], key: str, measured_s: float, calibration_s: float
) -> None:
    """Refresh one workload's ``current_s`` (and speedup) in the document."""
    entry = data["workloads"].setdefault(key, {})
    entry["current_s"] = round(measured_s, 5)
    baseline = entry.get("baseline_s")
    if baseline:
        entry["speedup"] = round(baseline / measured_s, 2)
    data["meta"]["calibration_s"] = round(calibration_s, 5)
    data["meta"].setdefault("tolerance", DEFAULT_TOLERANCE)


def record_baseline(data: Dict[str, Any], key: str, measured_s: float) -> None:
    """Refresh one workload's ``baseline_s`` (and speedup) in the document.

    Used for batch workloads, whose baseline is the same seed batch timed
    on the inline kernel rather than a frozen pre-optimisation number.
    """
    entry = data["workloads"].setdefault(key, {})
    entry["baseline_s"] = round(measured_s, 5)
    current = entry.get("current_s")
    if current:
        entry["speedup"] = round(entry["baseline_s"] / float(current), 2)


def budget_for(
    data: Dict[str, Any], key: str, calibration_s: Optional[float] = None
) -> Optional[float]:
    """The scaled wall-time budget for ``key``, or ``None`` when unrecorded.

    ``budget = (current_s + max(current_s * tolerance, ABSOLUTE_GRACE_S))
    * (calibration_now / calibration_recorded)``
    """
    entry = data["workloads"].get(key)
    if not entry or "current_s" not in entry:
        return None
    tolerance = float(data["meta"].get("tolerance", DEFAULT_TOLERANCE))
    scale = 1.0
    recorded_calibration = data["meta"].get("calibration_s")
    if calibration_s and recorded_calibration:
        scale = calibration_s / float(recorded_calibration)
    current = float(entry["current_s"])
    return (current + max(current * tolerance, ABSOLUTE_GRACE_S)) * scale
