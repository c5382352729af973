#!/usr/bin/env python3
"""Chaos campaign walkthrough: deterministic fault injection end to end.

This example arms a :class:`repro.resilience.FaultPlan` against a spool
campaign and proves the crash-consistency guarantees on the spot:

1. **Serial reference** — an inline campaign, the byte-identity baseline.
2. **Chaos campaign** — the same cells through the spool backend while
   every first-wave worker process (a) tears its second result-shard
   write mid-flight and (b) dies with ``os._exit`` on its third cell.
   The coordinator detects torn shards via their sha256 trailers,
   reclaims expired leases and respawns replacement workers at the next
   fault generation.  The merged store is still byte-identical to the
   serial one and the quarantine stays empty.  Workers never touch the
   result cache (the campaign runner alone reads and writes it), so a
   garbled cache entry is a fault of the runner's cache, repaired on read
   by the next campaign that looks it up.

Fault plans are plain JSON, so the same chaos run works from the CLI:

    python -m repro.experiments run demo/random_walk --seeds 6 \\
        --backend spool --spool /tmp/spool --workers 2 --task-size 1 \\
        --max-respawns 4 --faults plan.json --store chaos.jsonl

Run with:  PYTHONPATH=src python examples/chaos_campaign.py
"""

import os
import tempfile
from pathlib import Path

from repro.distributed import Spool, SpoolBackend
from repro.experiments import ParallelCampaignRunner, ResultStore
from repro.observability.events import read_events
from repro.resilience import PLAN_ENV, FaultPlan, FaultRule

SCENARIO = "demo/random_walk"
SEEDS = range(1, 7)


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="chaos-campaign-"))
    print(f"working under {workdir}\n")

    # 1. Serial reference run.
    serial_store = ResultStore(workdir / "serial.jsonl")
    serial = ParallelCampaignRunner(store=serial_store).run(SCENARIO, seeds=SEEDS)
    print(f"serial:  {serial.run_count} runs executed in-process")

    # 2. A seeded fault plan.  ``max_generation=0`` scopes every rule to
    # first-wave workers, so respawned replacements run clean and the
    # campaign converges deterministically.
    plan = FaultPlan(
        [
            FaultRule(point="spool.write_shard", kind="torn_write", at=2, max_generation=0),
            FaultRule(point="worker.cell", kind="crash", at=3, max_generation=0),
        ]
    )
    plan_path = plan.save(workdir / "plan.json")
    # Worker processes arm the plan from the environment at startup.
    os.environ[PLAN_ENV] = str(plan_path)

    backend = SpoolBackend(
        workdir / "spool",
        workers=2,
        task_size=1,
        lease_timeout=5.0,
        poll_interval=0.02,
        timeout=300.0,
        max_respawns=4,
    )
    chaos_store = ResultStore(workdir / "chaos.jsonl")
    chaos = ParallelCampaignRunner(store=chaos_store, backend=backend).run(
        SCENARIO, seeds=SEEDS
    )
    del os.environ[PLAN_ENV]

    spool = Spool(workdir / "spool")
    kinds = [event["kind"] for event in read_events(spool.events_path)]
    print(
        f"chaos:   {chaos.run_count} runs survived "
        f"{kinds.count('worker_dead')} worker crash(es), "
        f"{kinds.count('shard_torn')} torn shard(s), "
        f"{kinds.count('worker_respawn')} respawn(s)"
    )

    identical = (workdir / "serial.jsonl").read_bytes() == (workdir / "chaos.jsonl").read_bytes()
    print(f"         store byte-identical to serial: {identical}")
    assert identical, "chaos campaign store must match the serial store byte-for-byte"
    assert chaos.failures == 0
    assert spool.quarantined_task_ids() == [], "no task should need quarantine"

    print("\nEvery fault was detected and recovered; the results are unchanged.")
    print("Inspect the event log with: python -m repro.experiments tail", workdir / "spool")


if __name__ == "__main__":
    main()
