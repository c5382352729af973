"""``repro.observability`` — campaign progress, event logs and span traces.

The observability subsystem makes running campaigns inspectable without
ever touching the physics.  It records through three paths, each with its
own job; counters live in the subsystems themselves (``CacheIndex``
session stats, ``VectorStats``), and a cell's build/sim/collect phases
are spans of the trace:

* :mod:`repro.observability.events` — an append-only JSONL event log with
  a fixed taxonomy (task claimed/completed/reclaimed, worker
  start/idle/exit, ...), safe for many processes appending to one file on
  a shared filesystem, and the fold of a spool's log into its workers.
* :mod:`repro.observability.progress` — the machine-readable
  ``progress.json`` snapshot (atomic tmp+rename) that the runner and the
  spool coordinator keep up to date, and that ``python -m
  repro.experiments status`` polls; :func:`campaign_paths` names it and
  every other sidecar of a spool or a store.
* :mod:`repro.observability.trace` — distributed span tracing: per-process
  ``trace-<pid>.jsonl`` span files with explicit trace/span/parent ids
  propagated coordinator → task file → worker → cell → attempt → phase
  (and cache/shard spans), merged, summarised (the cell-phase table among
  its tables) and exported as Chrome trace-event JSON (Perfetto) by the
  ``trace`` CLI.  Off by default and free when off.  **Hard rule**: tracing never draws
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
    campaign_paths,
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
    merge_trace_files,
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
    "merge_trace_files",
    "summarize_trace",
    "PROGRESS_VERSION",
    "CampaignProgress",
    "ProgressTracker",
    "atomic_write_text",
    "read_progress",
    "write_progress",
    "campaign_paths",
]
