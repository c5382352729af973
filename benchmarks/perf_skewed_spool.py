"""Plain pull spool scheduling stays within 1.2x of perfect packing.

A seeded-skew campaign (12 short-stall cells, 4 long-stall cells) runs on a
2-worker spool at one cell per task: each idle worker claims the next
pending cell.  Its wall clock is compared against the ideal packing, the
summed per-task busy time split evenly across the workers.  The gate is a
ratio of two times measured in the same run, so it needs no machine-speed
calibration.  The spool store must also stay byte-identical to a ``jobs=1``
serial run of the same campaign.

Run it::

    PYTHONPATH=src python -m pytest benchmarks/perf_skewed_spool.py -q
"""

import time
from typing import Dict

from repro.distributed import Spool, SpoolBackend
from repro.experiments import ParallelCampaignRunner, ResultStore
from repro.experiments.registry import load_builtin_scenarios
from repro.observability.events import read_events
from repro.resilience import PLAN_ENV, FaultPlan, FaultRule

WORKERS = 2
#: ``(cells, per-cell stall seconds)`` for the cheap and the heavy cells.
CHEAP = (12, 0.3)
HEAVY = (4, 1.6)
SCENARIO = "demo/random_walk"
PARAMS = {"steps": 100}


def test_skewed_spool_wall_clock(tmp_path, monkeypatch):
    # Cells are sleep-bound: a deterministic fault plan stalls each cell at
    # `worker.cell`, so concurrent workers overlap even on a single core and
    # the ratio reflects scheduling quality rather than CPU contention.  The
    # plan only matches spool workers, so the serial reference is not stalled.
    cheap_cells, cheap_sleep_s = CHEAP
    heavy_cells, heavy_sleep_s = HEAVY
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
    serial_store = tmp_path / "serial.jsonl"
    ParallelCampaignRunner(
        jobs=1, registry=registry, store=ResultStore(serial_store)
    ).run(SCENARIO, params=PARAMS, seeds=seeds)

    monkeypatch.setenv(PLAN_ENV, str(FaultPlan(rules).save(tmp_path / "skew-plan.json")))
    backend = SpoolBackend(
        tmp_path / "spool",
        workers=WORKERS,
        task_size=1,
        poll_interval=0.05,
        timeout=600.0,
    )
    spool_store = tmp_path / "spool.jsonl"
    started = time.monotonic()
    ParallelCampaignRunner(
        registry=registry, store=ResultStore(spool_store), backend=backend
    ).run(SCENARIO, params=PARAMS, seeds=seeds)
    spool_wall_s = time.monotonic() - started

    assert spool_store.read_bytes() == serial_store.read_bytes(), (
        "skewed spool campaign diverged from the jobs=1 serial store"
    )
    # Ideal packing: every task's claim-to-completion busy time, summed from
    # the event log, split evenly across the workers.
    claimed_at: Dict[str, float] = {}
    busy_s = 0.0
    for event in read_events(Spool(tmp_path / "spool").events_path):
        if event["kind"] == "task_claimed":
            claimed_at[event["task"]] = event["ts"]
        elif event["kind"] == "task_completed" and event["task"] in claimed_at:
            busy_s += event["ts"] - claimed_at.pop(event["task"])
    ideal_s = busy_s / WORKERS
    assert spool_wall_s <= 1.2 * ideal_s, (
        f"skewed spool campaign took {spool_wall_s:.2f}s against an ideal "
        f"packing of {ideal_s:.2f}s ({spool_wall_s / ideal_s:.2f}x > 1.2x); "
        "plain pull scheduling (one cell per task, idle workers claim the "
        "next) has regressed"
    )
