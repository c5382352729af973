#!/usr/bin/env python3
"""Tracing walkthrough: where did a distributed campaign's wall-clock go?

``run --trace`` (or :func:`repro.observability.enable_tracing` in code)
records a distributed span trace of a campaign.  Every process that
touches it — the coordinator, each spool worker — appends whole-line
spans to its own ``trace-<pid>.jsonl``, stitched into one tree by
explicit ids: the coordinator's ``publish`` span id rides inside the
spool task file, the worker parents its ``task`` span to it, cells and
shard writes to the task.  Workers never touch the result cache: with
one attached, the runner's single batch of writes is one ``cache.put``
span on the coordinator's lane.  The spans carry the per-cell facts
too: each ``task`` span its queue wait, each ``cell`` span its seed and
run time, and the worker that ran it.

This example runs a traced 2-worker spool campaign, then asks the three
questions the ``trace`` CLI subcommand answers:

* ``summary``        — per-phase totals, slowest cells, stragglers;
* ``critical-path``  — the span chain bounding wall-clock, idle gaps
  attributed (covered + idle == wall-clock, exactly);
* ``export``         — Chrome trace-event JSON for chrome://tracing or
  https://ui.perfetto.dev, one lane per worker.

Run with:  PYTHONPATH=src python examples/trace_campaign.py
"""

import json
import tempfile
from pathlib import Path

from repro.distributed import SpoolBackend
from repro.experiments import ParallelCampaignRunner, ResultStore
from repro.observability import (
    critical_path,
    disable_tracing,
    enable_tracing,
    export_chrome_trace,
    merge_trace_files,
    summarize_trace,
)

SCENARIO = "demo/random_walk"
SEEDS = list(range(1, 9))


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="trace-campaign-"))
    spool = workdir / "spool"
    print(f"working under {workdir}\n")

    # Spool campaigns trace into the spool root: workers read the trace id
    # and their parent span id straight out of the task files they claim,
    # so no environment plumbing is needed.
    trace_id = enable_tracing(spool, source="coordinator")
    try:
        backend = SpoolBackend(spool, workers=2, timeout=300.0)
        result = ParallelCampaignRunner(
            store=ResultStore(workdir / "results.jsonl"), backend=backend
        ).run(SCENARIO, seeds=SEEDS)
    finally:
        disable_tracing()
    assert result.failures == 0
    print(f"campaign done: {result.run_count} cells, trace id {trace_id}")

    # One globally-ordered span stream: per-process file order is kept
    # (it is causal order there), wall-clock merges across processes.
    spans = merge_trace_files(spool)
    processes = sorted({span["pid"] for span in spans})
    print(f"trace: {len(spans)} spans from {len(processes)} processes\n")

    # Where did the time go, phase by phase?
    summary = summarize_trace(spans, top=3)
    for row in summary["phases"]:
        print(f"  {row['cat']:>9}/{row['name']:<12} x{row['count']:<3} "
              f"total {row['total_s']:.3f}s  max {row['max_s']:.3f}s")
    slowest = summary["slowest_cells"][0]
    print(f"\nslowest cell: {slowest['cell']} ({slowest['dur_s']:.3f}s "
          f"on {slowest['worker']})")

    # The chain that bounded wall-clock, with idle gaps attributed.
    path = critical_path(spans)
    print(f"\ncritical path: wall-clock {path['wall_clock_s']:.3f}s = "
          f"{path['covered_s']:.3f}s work + {path['idle_s']:.3f}s idle "
          f"({len(path['chain'])} chain spans, {len(path['gaps'])} gaps)")
    # Exact up to the 6-decimal rounding each reported entry carries.
    assert abs(path["covered_s"] + path["idle_s"] - path["wall_clock_s"]) < 1e-3

    # Per-cell facts, read from the same spans: one cell span per cell,
    # the queue wait each task span measured, the worker lanes that ran.
    cell_phase = next(row for row in summary["phases"] if row["cat"] == "cell")
    queue_wait = sum(
        span["args"].get("queue_wait_s", 0.0) for span in spans if span["name"] == "task"
    )
    workers = sorted({str(span["tid"]) for span in spans if span["name"] == "cell"})
    print(f"\ncells: {summary['cells']} cell spans on {len(workers)} worker lane(s); "
          f"mean run {cell_phase['total_s'] / cell_phase['count']:.4f}s, "
          f"median {summary['median_cell_s']:.4f}s, "
          f"total queue wait {queue_wait:.3f}s")
    assert summary["cells"] == len(SEEDS)

    # Perfetto-loadable export: ph/ts/dur complete events on integer
    # thread lanes, with thread_name metadata naming each worker.
    document = export_chrome_trace(spans)
    out = workdir / "trace.json"
    out.write_text(json.dumps(document) + "\n", encoding="utf-8")
    lanes = sum(1 for e in document["traceEvents"]
                if e["ph"] == "M" and e["name"] == "thread_name")
    print(f"\nexported {len(document['traceEvents'])} Chrome trace events "
          f"({lanes} named lanes) to {out}")
    print("open it in chrome://tracing or https://ui.perfetto.dev")


if __name__ == "__main__":
    main()
