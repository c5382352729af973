"""``repro.observability`` — telemetry, campaign progress and event logs.

The observability subsystem makes running campaigns inspectable without
ever touching the physics:

* :mod:`repro.observability.telemetry` — a lightweight, thread-safe
  metrics registry (counters, gauges, monotonic-clock timer spans) with a
  process-global default instance.  **Hard rule**: telemetry never draws
  randomness, never reorders events and never changes result bytes — the
  fingerprint suite re-runs with telemetry enabled to enforce it — and is
  a near-zero-overhead no-op while disabled (the default).
* :mod:`repro.observability.events` — an append-only JSONL event log with
  a fixed taxonomy (task claimed/completed/reclaimed, cache hit/miss,
  worker start/idle/exit, ...), safe for many processes appending to one
  file on a shared filesystem.
* :mod:`repro.observability.progress` — the machine-readable
  ``progress.json`` snapshot (atomic tmp+rename) that the runner and the
  spool coordinator keep up to date, and that ``python -m
  repro.experiments status`` (and, later, the campaign-as-a-service
  control plane of ROADMAP item 1) polls.
* :mod:`repro.observability.trace` — distributed span tracing: per-process
  ``trace-<pid>.jsonl`` span files with explicit trace/span/parent ids
  propagated coordinator → task file → worker → cell → cache/shard, merged
  and exported as Chrome trace-event JSON (Perfetto) by the ``trace`` CLI.
  Off by default and free when off, like telemetry.
* :mod:`repro.observability.ledger` — the per-cell ``ledger.jsonl`` run
  ledger (scenario, params hash, seed, attempts, executed_by, queue-wait
  and run durations) every backend appends to when tracing is on: the
  machine-readable timing feed for elastic scheduling (ROADMAP 3) and the
  control plane (ROADMAP 1).

Layering: this package depends on the stdlib only, so every other
subsystem (``sim``, ``experiments``, ``distributed``) may import it freely.
"""

from repro.observability.events import EVENT_KINDS, EventLog, follow_events, read_events
from repro.observability.ledger import (
    LEDGER_FILENAME,
    RunLedger,
    read_ledger,
    summarize_ledger,
)
from repro.observability.progress import (
    PROGRESS_VERSION,
    CampaignProgress,
    ProgressTracker,
    atomic_write_text,
    atomic_write_texts,
    read_progress,
    write_progress,
)
from repro.observability.telemetry import (
    TelemetryRegistry,
    get_telemetry,
    set_telemetry_enabled,
    telemetry_enabled,
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
    "LEDGER_FILENAME",
    "RunLedger",
    "read_ledger",
    "summarize_ledger",
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
    "atomic_write_texts",
    "read_progress",
    "write_progress",
    "TelemetryRegistry",
    "get_telemetry",
    "set_telemetry_enabled",
    "telemetry_enabled",
]
