"""Per-scenario perf budgets: fail CI when a pinned workload regresses.

Each budgeted workload (see :data:`repro.experiments.perf.PERF_WORKLOADS`) is
a pinned ``(scenario, seed, params)`` cell timed as best-of-N wall time.  The
recorded timings live in ``BENCH_kernel.json`` at the repo root; the check
scales them by a machine-speed calibration probe so the gate transfers
between laptops and CI runners.

Run the checks::

    PYTHONPATH=src python -m pytest benchmarks/perf_budgets.py -q

Refresh ``BENCH_kernel.json`` after intentional performance changes::

    PERF_UPDATE=1 PYTHONPATH=src python -m pytest benchmarks/perf_budgets.py -q

Environment knobs:

* ``PERF_UPDATE=1`` — record ``current_s`` (and the calibration) instead of
  asserting, preserving each workload's ``baseline_s`` trajectory;
* ``PERF_TOLERANCE=0.5`` — override the recorded regression tolerance
  (default 0.30, i.e. fail beyond +30%).
"""

import os
from pathlib import Path

import pytest

from repro.experiments.perf import (
    PERF_WORKLOADS,
    budget_for,
    calibrate,
    load_bench,
    measure_workload,
    record_baseline,
    record_current,
    save_bench,
)

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"
UPDATE = os.environ.get("PERF_UPDATE", "") not in ("", "0")


@pytest.fixture(scope="module")
def calibration():
    """Machine-speed probe, measured once per session."""
    return calibrate()


@pytest.mark.parametrize("key", sorted(PERF_WORKLOADS))
def test_perf_budget(key, calibration):
    workload = PERF_WORKLOADS[key]
    measured = measure_workload(workload)
    data = load_bench(BENCH_PATH)

    if UPDATE:
        record_current(data, key, measured, calibration)
        if workload.seeds and workload.backend:
            # Batch workloads carry a live baseline: the same seed batch
            # timed on the inline kernel, so `speedup` states what the
            # vector backend buys on the refreshing machine.
            record_baseline(data, key, measure_workload(workload, backend="inline"))
        save_bench(BENCH_PATH, data)
        return

    tolerance_override = os.environ.get("PERF_TOLERANCE")
    if tolerance_override:
        data["meta"]["tolerance"] = float(tolerance_override)
    budget = budget_for(data, key, calibration_s=calibration)
    if budget is None:
        pytest.skip(
            f"no recorded budget for {key!r}; refresh with "
            "PERF_UPDATE=1 pytest benchmarks/perf_budgets.py"
        )
    assert measured <= budget, (
        f"{key} regressed: {measured * 1000:.1f} ms > scaled budget "
        f"{budget * 1000:.1f} ms ({workload.description}); if intentional, "
        "refresh BENCH_kernel.json with PERF_UPDATE=1"
    )


def test_skewed_spool_elastic_wall_clock():
    """Plain pull spool scheduling must stay within 1.2x of perfect packing.

    A seeded-skew campaign (12 short-stall cells, 4 long-stall cells —
    sleep-bound, so workers overlap even on one core) runs on a 2-worker
    spool; the measured wall clock is compared against the ideal of the
    summed per-task busy time split evenly across the workers.  The
    measurement also verifies the spool store stays byte-identical to
    the ``jobs=1`` serial run.  Unlike the cell budgets above, the gate is
    a *ratio* of two times measured in the same run, so it needs no
    machine-speed calibration.
    """
    from repro.experiments.perf import measure_skewed_spool

    spool_wall_s, ideal_s = measure_skewed_spool()
    if UPDATE:
        data = load_bench(BENCH_PATH)
        entry = data["workloads"].setdefault("skewed_spool", {})
        entry["baseline_s"] = round(ideal_s, 5)
        entry["current_s"] = round(spool_wall_s, 5)
        entry["speedup"] = round(ideal_s / spool_wall_s, 2)
        save_bench(BENCH_PATH, data)
        return
    assert spool_wall_s <= 1.2 * ideal_s, (
        f"skewed spool campaign took {spool_wall_s:.2f}s against an ideal "
        f"packing of {ideal_s:.2f}s ({spool_wall_s / ideal_s:.2f}x > 1.2x); "
        "plain pull scheduling (one cell per task, idle workers claim the "
        "next) has regressed"
    )


def test_vector_batch_speedup_recorded():
    """The 64-seed E2 batch must hold a recorded >=5x vector speedup.

    This pins the point of the lockstep engine: if a change drags the
    recorded ``e2_batch64`` speedup below 5x over the inline kernel, the
    optimisation has regressed even if the absolute budget still passes.
    """
    if UPDATE:
        pytest.skip("budgets are being refreshed")
    data = load_bench(BENCH_PATH)
    entry = data["workloads"].get("e2_batch64", {})
    if "speedup" not in entry:
        pytest.skip(
            "no recorded e2_batch64 speedup; refresh with "
            "PERF_UPDATE=1 pytest benchmarks/perf_budgets.py"
        )
    assert float(entry["speedup"]) >= 5.0, (
        f"e2_batch64 vector speedup fell to {entry['speedup']}x (< 5x over the "
        "inline kernel); the lockstep fast path has regressed"
    )
