"""``repro.observability`` — campaign progress, event logs and span traces.

The observability subsystem makes running campaigns inspectable without
ever touching the physics.  It records through three paths, each with its
own job; counters live in the subsystems themselves (``CacheIndex``
session stats, ``VectorStats``) and per-cell ``run --profile`` phases in
the simulator kernel's accumulator:

* :mod:`repro.observability.events` — an append-only JSONL event log with
  a fixed taxonomy (task claimed/completed/reclaimed, cache hit/miss,
  worker start/idle/exit, ...), safe for many processes appending to one
  file on a shared filesystem.
* :mod:`repro.observability.progress` — the machine-readable
  ``progress.json`` snapshot (atomic tmp+rename) that the runner and the
  spool coordinator keep up to date, and that ``python -m
  repro.experiments status`` polls.
* :mod:`repro.observability.trace` — distributed span tracing: per-process
  ``trace-<pid>.jsonl`` span files with explicit trace/span/parent ids
  propagated coordinator → task file → worker → cell → cache/shard, merged
  and exported as Chrome trace-event JSON (Perfetto) by the ``trace`` CLI.
  Off by default and free when off.  **Hard rule**: tracing never draws
  seeded randomness, never reorders events and never changes result bytes
  — the fingerprint suite re-runs with it enabled to enforce it.

Layering: this package depends on the stdlib only, so every other
subsystem (``sim``, ``experiments``, ``distributed``) may import it freely.
"""

from repro.observability.events import EVENT_KINDS, EventLog, follow_events, read_events
from repro.observability.progress import (
    PROGRESS_VERSION,
    CampaignProgress,
    ProgressTracker,
    atomic_write_text,
    read_progress,
    write_progress,
)
from repro.observability.trace import (
    TRACER,
    Tracer,
    critical_path,
    disable_tracing,
    enable_tracing,
    export_chrome_trace,
    get_tracer,
    merge_trace_files,
    resolve_trace_dir,
    summarize_trace,
)

__all__ = [
    "EVENT_KINDS",
    "EventLog",
    "follow_events",
    "read_events",
    "TRACER",
    "Tracer",
    "critical_path",
    "disable_tracing",
    "enable_tracing",
    "export_chrome_trace",
    "get_tracer",
    "merge_trace_files",
    "resolve_trace_dir",
    "summarize_trace",
    "PROGRESS_VERSION",
    "CampaignProgress",
    "ProgressTracker",
    "atomic_write_text",
    "read_progress",
    "write_progress",
]
