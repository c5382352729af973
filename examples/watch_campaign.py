#!/usr/bin/env python3
"""Observability walkthrough: watch a live campaign from another thread.

A spool campaign publishes two advisory artifacts inside the spool
directory while it runs:

* ``progress.json`` — an atomically-replaced snapshot of the cell
  accounting (pending / running / done / failed, throughput, ETA) and
  each worker's state, folded from ``events.jsonl``.
  ``python -m repro.experiments status <spool> --watch``
  polls exactly this file.
* ``events.jsonl`` — an append-only log of campaign transitions (tasks
  claimed and completed, workers starting and exiting).
  ``python -m repro.experiments tail <spool> --follow`` streams it.

This example drives a 2-worker spool campaign on a background thread and
watches it finish through those two files — the same read-only protocol an
operator (or a dashboard) would use from a different process or host.

Run with:  PYTHONPATH=src python examples/watch_campaign.py
"""

import tempfile
import threading
import time
from pathlib import Path

from repro.distributed import SpoolBackend
from repro.experiments import ParallelCampaignRunner, ResultStore
from repro.observability import read_events, read_progress

SCENARIO = "demo/random_walk"
SEEDS = range(1, 13)


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="watch-campaign-"))
    spool = workdir / "spool"
    print(f"working under {workdir}\n")

    # The campaign under observation: 12 cells over 2 worker processes.
    backend = SpoolBackend(spool, workers=2, task_size=3, timeout=300.0)
    runner = ParallelCampaignRunner(store=ResultStore(workdir / "results.jsonl"), backend=backend)
    campaign = threading.Thread(target=runner.run, args=(SCENARIO,), kwargs={"seeds": SEEDS})
    campaign.start()

    # Watch progress.json until the campaign completes.  Readers never see a
    # torn file (atomic replace) and a missing file just means "not started
    # yet" — so polling is safe at any moment of the campaign's life.
    seen = None
    while True:
        progress = read_progress(spool / "progress.json")
        if progress is not None:
            line = (
                f"{progress.done}/{progress.total} done, "
                f"{progress.running} running, {progress.pending} pending"
            )
            if line != seen:
                seen = line
                workers = ", ".join(
                    f"{wid}={w.get('state', '?')}" for wid, w in sorted(progress.workers.items())
                )
                print(f"progress: {line}" + (f"   [{workers}]" if workers else ""))
            if progress.complete:
                break
        time.sleep(0.05)
    campaign.join()

    # The event log has the full story, in global append order.
    events = read_events(spool / "events.jsonl")
    by_kind = {}
    for event in events:
        by_kind[event["kind"]] = by_kind.get(event["kind"], 0) + 1
    print(f"\nevent log: {len(events)} events")
    for kind in sorted(by_kind):
        print(f"  {by_kind[kind]:3d} x {kind}")

    assert events[0]["kind"] == "campaign_start"
    assert by_kind.get("campaign_complete") == 1
    assert by_kind.get("task_completed", 0) * 3 == len(list(SEEDS))  # task_size=3
    final = read_progress(spool / "progress.json")
    assert final.complete and final.done == final.total == len(list(SEEDS))
    print("\ncampaign complete; progress.json and events.jsonl agree with the run")


if __name__ == "__main__":
    main()
