#!/usr/bin/env python3
"""Distributed campaign walkthrough: spool backend + shared result cache.

This example runs the same campaign three ways and proves the distributed
guarantees on the spot:

1. **Serial reference** — an inline campaign, the byte-identity baseline.
2. **Spool campaign** — the coordinator shards the campaign's
   ``(scenario, params, seed)`` cells into task files on a filesystem
   spool; two worker *processes* claim tasks via atomic ``os.rename``,
   execute them, and write result shards the coordinator merges back in
   run-list order.  The resulting store is byte-identical to the serial
   one.
3. **Cache replay** — a second store sharing the content-addressed cache
   re-runs zero cells: every cell is served from the cache, keyed by
   ``sha256(scenario source + canonical params + seed)``.

Run with:  PYTHONPATH=src python examples/distributed_campaign.py

On real deployments the spool lives on a shared filesystem and workers run
on other hosts:

    python -m repro.experiments run platoon/karyon --seeds 50 \\
        --backend spool --spool /shared/spool --workers 0 --store results.jsonl
    python -m repro.experiments worker /shared/spool     # on each host
"""

import tempfile
from pathlib import Path

from repro.distributed import CacheIndex, SpoolBackend
from repro.experiments import ParallelCampaignRunner, ResultStore

SCENARIO = "demo/random_walk"
SEEDS = range(1, 13)


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="distributed-campaign-"))
    print(f"working under {workdir}\n")

    # 1. Serial reference run.
    serial_store = ResultStore(workdir / "serial.jsonl")
    serial = ParallelCampaignRunner(store=serial_store).run(SCENARIO, seeds=SEEDS)
    print(
        f"serial:  {serial.run_count} runs executed in-process "
        f"(backend={serial.backend})"
    )

    # 2. The same campaign through a spool with 2 worker processes.
    cache = CacheIndex(workdir / "cache")
    backend = SpoolBackend(workdir / "spool", workers=2, task_size=3, timeout=300.0)
    spool_store = ResultStore(workdir / "spool.jsonl")
    distributed = ParallelCampaignRunner(
        store=spool_store, backend=backend, cache=cache
    ).run(SCENARIO, seeds=SEEDS)
    identical = (workdir / "serial.jsonl").read_bytes() == (workdir / "spool.jsonl").read_bytes()
    print(
        f"spool:   {distributed.run_count} runs over 2 worker processes "
        f"(backend={distributed.backend}); store byte-identical to serial: {identical}"
    )
    assert identical, "spool campaign store must match the serial store byte-for-byte"

    # 3. A fresh store sharing the cache: zero cells re-run.
    replay_store = ResultStore(workdir / "replay.jsonl")
    replay = ParallelCampaignRunner(store=replay_store, cache=cache).run(
        SCENARIO, seeds=SEEDS
    )
    print(
        f"replay:  {replay.executed} executed, {replay.cached} served from the "
        f"shared cache ({len(cache)} entries)"
    )
    assert replay.executed == 0 and replay.cached == len(list(SEEDS))
    assert (workdir / "replay.jsonl").read_bytes() == (workdir / "serial.jsonl").read_bytes()

    print("\nAll three stores are byte-identical; the cache outlives every store.")
    print("Inspect the spool layout under", workdir / "spool")


if __name__ == "__main__":
    main()
