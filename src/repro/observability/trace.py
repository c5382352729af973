"""Distributed span tracing: where a campaign's wall-clock time actually goes.

A *trace* is the set of spans one campaign produced across every process
that touched it — coordinator, spool workers, the vector backend —
stitched together by explicit ids:

* every span carries ``trace`` (the campaign's trace id), ``span`` (its
  own id, unique across processes: ``<pid-hex>-<seq-hex>``) and ``parent``
  (the id of the span that caused it, or ``null`` for the root);
* ids are *propagated*, never inferred: the coordinator embeds its publish
  span's id in the spool task file, the worker parents its claim/task
  spans to it, cell spans parent to the task span, retry attempts parent
  to their cell, an attempt's ``phase`` spans (``scenario.build``,
  ``scenario.sim``, ``run.collect``) to it, cache and shard-write spans to
  whatever ran them.

Spans append to per-process ``trace-<pid>.jsonl`` files in the trace
directory (the spool root for ``--spool`` campaigns, ``<store>.trace/``
otherwise) with the same whole-line append discipline as ``events.jsonl``:
one small ``write()`` on an append-mode handle, so a crashing process
loses at most its open spans, never tears a line another process wrote.

**Off by default, free when off.**  The process-global :data:`TRACER` is
disabled unless explicitly configured (``run --trace``).  A forked spool
worker inherits it; a hand-started spool worker configures it from the
trace context its task carries.  While disabled,
:meth:`Tracer.span` returns a shared no-op span after one attribute check,
so untraced campaigns run un-instrumented-equivalent code.  Tracing never
draws seeded randomness and never contributes to result bytes: the
fingerprint suite re-runs all 20 pinned workloads with tracing enabled.

Timestamps: each process anchors ``time.time()`` against
``time.perf_counter()`` once at configure time and derives every span's
wall-clock ``ts`` from the monotonic clock, so spans within one process
nest *exactly* (a child's interval is contained in its parent's) and
cross-process alignment is as good as the hosts' wall clocks.  ``seq`` is
the per-process append counter; the merge orders spans monotonic-in-process
(file order per pid) with wall-clock as the cross-process tiebreak.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

TRACE_SCHEMA_VERSION = 1

#: Span categories the critical-path walk treats as "work" (everything
#: else — publish bookkeeping, cache probes — is overhead inside them).
WORK_CATS = frozenset({"cell", "task", "batch"})


class _NullSpan:
    """Shared no-op span returned while tracing is disabled."""

    __slots__ = ()
    span_id: Optional[str] = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        return False

    def set(self, **args: Any) -> None:
        """Attach args to the span (no-op while disabled)."""


_NULL_SPAN = _NullSpan()


class _Span:
    """A live span; appends one JSONL line when it exits."""

    __slots__ = ("_tracer", "name", "cat", "span_id", "parent", "args", "_start", "_prev")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        cat: str,
        span_id: str,
        parent: Optional[str],
        args: Dict[str, Any],
    ):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.span_id = span_id
        self.parent = parent
        self.args = args
        self._start = 0.0
        self._prev: Optional[str] = None

    def set(self, **args: Any) -> None:
        """Attach extra args to the span before it closes."""
        self.args.update(args)

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        self._prev = self._tracer._set_current(self.span_id)
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        end = time.perf_counter()
        self._tracer._restore_current(self._prev)
        self._write(end)
        return False

    def _write(self, end: float) -> None:
        self._tracer._append(
            {
                "ph": "X",
                "name": self.name,
                "cat": self.cat,
                "trace": self._tracer.trace_id,
                "span": self.span_id,
                "parent": self.parent,
                "ts": self._tracer._wall(self._start),
                "dur": round(end - self._start, 9),
                **({"args": self.args} if self.args else {}),
            }
        )


class Tracer:
    """Per-process span writer with explicit id propagation.

    One tracer per process; :meth:`configure` points it at a trace
    directory and a campaign trace id.  Safe to leave configured across
    ``fork``: the first span emitted in a forked child notices the pid
    change and re-anchors itself onto its own ``trace-<pid>.jsonl``.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.directory: Optional[Path] = None
        self.trace_id: Optional[str] = None
        self.source: Optional[str] = None
        #: Span lines lost to OSError; tracing must never fail a campaign.
        self.dropped = 0
        self._pid = 0
        self._seq = 0
        self._anchor_wall = 0.0
        self._anchor_perf = 0.0
        self._lock = threading.Lock()
        self._local = threading.local()

    # -------------------------------------------------------------- lifecycle
    def configure(
        self,
        directory: Union[str, os.PathLike],
        trace_id: Optional[str] = None,
        source: Optional[str] = None,
    ) -> str:
        """Enable tracing into ``directory``; returns the trace id."""
        self.directory = Path(directory)
        self.trace_id = trace_id or new_trace_id()
        self.source = source
        self.enabled = True
        self._rebind()
        return self.trace_id

    def disable(self) -> None:
        self.enabled = False
        self.directory = None
        self.trace_id = None
        self.source = None

    def _rebind(self) -> None:
        """(Re-)anchor this process: own pid, own file, own clock anchor."""
        self._pid = os.getpid()
        self._seq = 0
        self._anchor_wall = time.time()
        self._anchor_perf = time.perf_counter()

    @property
    def path(self) -> Optional[Path]:
        if self.directory is None:
            return None
        return self.directory / f"trace-{self._pid}.jsonl"

    # ------------------------------------------------------------------ spans
    def span(
        self,
        name: str,
        cat: str = "span",
        parent: Any = ...,
        **args: Any,
    ):
        """A context manager recording one span of ``name``.

        ``parent`` defaults to the current in-process span (the enclosing
        ``with`` block); pass an explicit id — e.g. one read from a spool
        task file — to stitch across processes, or ``None`` for a root.
        """
        if not self.enabled:
            return _NULL_SPAN
        if os.getpid() != self._pid:
            self._rebind()
        with self._lock:
            self._seq += 1
            span_id = f"{self._pid:x}-{self._seq:x}"
        resolved = self.current_parent if parent is ... else parent
        return _Span(self, name, cat, span_id, resolved, dict(args))

    def record(self, name: str, cat: str, start: float, end: float) -> None:
        """Record a span over an interval that has already ended, from two
        of this process's ``time.perf_counter()`` stamps."""
        span = self.span(name, cat)
        if span is not _NULL_SPAN:
            span._start = start
            span._write(end)

    def instant(
        self,
        name: str,
        cat: str = "event",
        parent: Any = ...,
        **args: Any,
    ) -> None:
        """Record one zero-duration event (Chrome ``ph: "i"``)."""
        if not self.enabled:
            return
        if os.getpid() != self._pid:
            self._rebind()
        with self._lock:
            self._seq += 1
            span_id = f"{self._pid:x}-{self._seq:x}"
        resolved = self.current_parent if parent is ... else parent
        self._append(
            {
                "ph": "i",
                "name": name,
                "cat": cat,
                "trace": self.trace_id,
                "span": span_id,
                "parent": resolved,
                "ts": self._wall(time.perf_counter()),
                **({"args": args} if args else {}),
            }
        )

    # ---------------------------------------------------------- parent context
    @property
    def current_parent(self) -> Optional[str]:
        return getattr(self._local, "parent", None)

    def _set_current(self, span_id: Optional[str]) -> Optional[str]:
        previous = getattr(self._local, "parent", None)
        self._local.parent = span_id
        return previous

    def _restore_current(self, span_id: Optional[str]) -> None:
        self._local.parent = span_id

    def parent_scope(self, span_id: Optional[str]):
        """Context manager making ``span_id`` the default parent inside it.

        Used to adopt a *foreign* parent — e.g. a worker parenting its task
        span to the coordinator's publish span id read from the task file.
        """
        tracer = self

        class _Scope:
            __slots__ = ("_prev",)

            def __enter__(self) -> None:
                self._prev = tracer._set_current(span_id)

            def __exit__(self, *exc_info: Any) -> bool:
                tracer._restore_current(self._prev)
                return False

        return _Scope()

    # -------------------------------------------------------------- internals
    def _wall(self, perf_stamp: float) -> float:
        return round(self._anchor_wall + (perf_stamp - self._anchor_perf), 6)

    def _append(self, event: Dict[str, Any]) -> None:
        path = self.path
        if path is None:
            return
        event["pid"] = self._pid
        if self.source is not None:
            event["tid"] = self.source
        with self._lock:
            self._seq += 1
            event["seq"] = self._seq
            try:
                with path.open("a", encoding="utf-8") as handle:
                    handle.write(json.dumps(event, sort_keys=True) + "\n")
            except OSError:
                self.dropped += 1


#: The process-global tracer every instrumented subsystem writes through.
TRACER = Tracer()


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace id (os.urandom-backed; physics-blind)."""
    return uuid.uuid4().hex[:16]


def enable_tracing(
    directory: Union[str, os.PathLike],
    trace_id: Optional[str] = None,
    source: Optional[str] = None,
) -> str:
    """Create ``directory`` and configure the global tracer into it."""
    Path(directory).mkdir(parents=True, exist_ok=True)
    return TRACER.configure(directory, trace_id=trace_id, source=source)


def disable_tracing() -> None:
    TRACER.disable()


# ---------------------------------------------------------------------------
# Reading, merging, exporting
# ---------------------------------------------------------------------------


def read_trace_file(path: Union[str, os.PathLike]) -> List[Dict[str, Any]]:
    """One process's spans in file (= monotonic-in-process) order."""
    spans: List[Dict[str, Any]] = []
    try:
        handle = Path(path).open("r", encoding="utf-8")
    except OSError:
        return spans
    with handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                span = json.loads(line)
            except ValueError:
                continue  # torn final line of a live trace
            if isinstance(span, dict) and "ts" in span:
                spans.append(span)
    return spans


def merge_trace_files(directory: Union[str, os.PathLike]) -> List[Dict[str, Any]]:
    """Every ``trace-*.jsonl`` span, globally ordered.

    Order within one process is its file order (the per-process ``seq`` is
    monotonic, so file order *is* causal order there); across processes the
    merge is a k-way merge on wall-clock ``ts`` — the only clock the
    processes share — so an earlier-``ts`` span from another pid sorts
    first, but two spans of one pid can never be reordered by clock skew.
    """
    directory = Path(directory)
    streams = [
        read_trace_file(path) for path in sorted(directory.glob("trace-*.jsonl"))
    ]
    streams = [stream for stream in streams if stream]
    cursors = [0] * len(streams)
    merged: List[Dict[str, Any]] = []
    while True:
        best: Optional[int] = None
        best_key: Optional[Tuple[float, int]] = None
        for i, stream in enumerate(streams):
            if cursors[i] >= len(stream):
                continue
            head = stream[cursors[i]]
            key = (float(head.get("ts", 0.0)), int(head.get("pid", 0)))
            if best_key is None or key < best_key:
                best, best_key = i, key
        if best is None:
            return merged
        merged.append(streams[best][cursors[best]])
        cursors[best] += 1


def _span_label(span: Dict[str, Any]) -> str:
    args = span.get("args") or {}
    bits = [str(span.get("name", "?"))]
    scenario = args.get("scenario")
    if scenario:
        bits.append(str(scenario))
    seed = args.get("seed")
    if seed is not None:
        bits.append(f"seed={seed}")
    task = args.get("task")
    if task and span.get("name") != "cell":
        bits.append(str(task))
    return " ".join(bits)


def export_chrome_trace(spans: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Convert merged spans to Chrome trace-event JSON (Perfetto-loadable).

    Complete spans become ``ph: "X"`` events with microsecond ``ts``/``dur``;
    instants become ``ph: "i"``.  Each distinct ``(pid, tid-label)`` pair
    gets its own integer thread lane plus ``thread_name`` metadata, so a
    spool campaign renders one lane per worker (and one for the
    coordinator) in ``chrome://tracing`` / https://ui.perfetto.dev.
    """
    events: List[Dict[str, Any]] = []
    lanes: Dict[Tuple[int, str], int] = {}
    named_pids: Dict[int, str] = {}
    for span in spans:
        pid = int(span.get("pid", 0))
        label = str(span.get("tid", "") or f"pid-{pid}")
        lane = lanes.get((pid, label))
        if lane is None:
            lane = len([key for key in lanes if key[0] == pid]) + 1
            lanes[(pid, label)] = lane
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid,
                    "tid": lane,
                    "args": {"name": label},
                }
            )
            if pid not in named_pids:
                named_pids[pid] = label
                events.append(
                    {
                        "ph": "M",
                        "name": "process_name",
                        "pid": pid,
                        "tid": 0,
                        "args": {"name": label},
                    }
                )
        event: Dict[str, Any] = {
            "ph": "i" if span.get("ph") == "i" else "X",
            "name": str(span.get("name", "?")),
            "cat": str(span.get("cat", "span")),
            "ts": round(float(span.get("ts", 0.0)) * 1e6, 3),
            "pid": pid,
            "tid": lane,
        }
        if event["ph"] == "X":
            event["dur"] = round(float(span.get("dur", 0.0)) * 1e6, 3)
        else:
            event["s"] = "t"  # instant scope: thread
        args = dict(span.get("args") or {})
        args["span"] = span.get("span")
        if span.get("parent"):
            args["parent"] = span.get("parent")
        event["args"] = args
        events.append(event)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"schema": TRACE_SCHEMA_VERSION},
    }


def summarize_trace(
    spans: Sequence[Dict[str, Any]],
    top: int = 5,
    straggler_k: float = 3.0,
) -> Dict[str, Any]:
    """Per-phase totals, cell phases, slowest cells and a straggler report.

    ``phases`` aggregates wall seconds by span name+category over the
    complete spans.  ``cell_phases`` sums each ``phase``-category span
    (``scenario.build``, ``scenario.sim``, ``run.collect``) into its parent
    attempt and gives, per phase, the count of attempts and the total,
    mean, p50, p95 and max of their seconds.  ``slowest_cells`` ranks the
    ``cell``-category spans; ``stragglers`` lists cells slower than
    ``straggler_k`` times the median cell.
    """
    phases: Dict[Tuple[str, str], Dict[str, Any]] = {}
    # Phase name -> parent attempt -> seconds: the kernel writes one
    # ``scenario.sim`` span per ``run_until`` call.
    by_attempt: Dict[str, Dict[Any, float]] = {}
    cells: List[Dict[str, Any]] = []
    for span in spans:
        if span.get("ph") == "i":
            continue
        dur = float(span.get("dur", 0.0))
        key = (str(span.get("cat", "span")), str(span.get("name", "?")))
        stats = phases.get(key)
        if stats is None:
            phases[key] = {"cat": key[0], "name": key[1], "count": 1, "total_s": dur, "max_s": dur}
        else:
            stats["count"] += 1
            stats["total_s"] += dur
            stats["max_s"] = max(stats["max_s"], dur)
        if span.get("cat") == "phase":
            attempts = by_attempt.setdefault(key[1], {})
            attempts[span.get("parent")] = attempts.get(span.get("parent"), 0.0) + dur
        if span.get("cat") == "cell":
            cells.append(span)
    cells.sort(key=lambda span: float(span.get("dur", 0.0)), reverse=True)
    durations = sorted(float(span.get("dur", 0.0)) for span in cells)
    median = durations[len(durations) // 2] if durations else 0.0
    threshold = straggler_k * median
    stragglers = [
        span for span in cells if median > 0.0 and float(span.get("dur", 0.0)) > threshold
    ]

    def cell_row(span: Dict[str, Any]) -> Dict[str, Any]:
        args = span.get("args") or {}
        return {
            "cell": _span_label(span),
            "seed": args.get("seed"),
            "dur_s": round(float(span.get("dur", 0.0)), 6),
            "worker": str(span.get("tid", "") or span.get("pid", "?")),
            "span": span.get("span"),
        }

    return {
        "spans": sum(1 for span in spans if span.get("ph") != "i"),
        "processes": len({span.get("pid") for span in spans}),
        "phases": sorted(phases.values(), key=lambda row: -row["total_s"]),
        "cell_phases": [
            _phase_row(name, sorted(attempts.values())) for name, attempts in by_attempt.items()
        ],
        "cells": len(cells),
        "median_cell_s": round(median, 6),
        "slowest_cells": [cell_row(span) for span in cells[: max(0, top)]],
        "straggler_threshold_s": round(threshold, 6),
        "stragglers": [cell_row(span) for span in stragglers],
    }


def _phase_row(name: str, values: Sequence[float]) -> Dict[str, Any]:
    """One phase's row over the ascending per-attempt ``values``; the
    percentiles interpolate linearly between the two nearest ranks."""

    def percentile(q: float) -> float:
        position = (len(values) - 1) * q / 100.0
        low = int(position)
        high = min(low + 1, len(values) - 1)
        return values[low] + (values[high] - values[low]) * (position - low)

    total = sum(values)
    return {
        "phase": name,
        "count": len(values),
        "total_s": round(total, 6),
        "mean_s": round(total / len(values), 6),
        "p50_s": round(percentile(50), 6),
        "p95_s": round(percentile(95), 6),
        "max_s": round(values[-1], 6),
    }


def critical_path(
    spans: Sequence[Dict[str, Any]],
    cats: Optional[Sequence[str]] = None,
) -> Dict[str, Any]:
    """The span chain bounding campaign wall-clock, with idle-gap attribution.

    Walks backwards from the instant the last work span finished: at each
    point in time, charge the interval to the work span covering it (the
    one with the latest start); where nothing was running, record an
    *idle gap* attributed to the spans on either side.  The chain's
    contributions plus the gaps partition the campaign's wall-clock
    exactly, so ``sum(chain dur) + sum(gap dur) == wall_clock_s``.

    ``cats`` selects the work categories (default :data:`WORK_CATS`); a
    campaign-category span, when present, sets the wall-clock bounds.
    """
    wanted = frozenset(cats) if cats is not None else WORK_CATS
    work = [
        span
        for span in spans
        if span.get("ph") != "i" and span.get("cat") in wanted and "dur" in span
    ]
    bounds = [span for span in spans if span.get("cat") == "campaign" and "dur" in span]
    if bounds:
        root = max(bounds, key=lambda span: float(span["dur"]))
        start_bound = float(root["ts"])
        end_bound = start_bound + float(root["dur"])
    elif work:
        start_bound = min(float(span["ts"]) for span in work)
        end_bound = max(float(span["ts"]) + float(span["dur"]) for span in work)
    else:
        return {"wall_clock_s": 0.0, "chain": [], "gaps": [], "covered_s": 0.0, "idle_s": 0.0}

    intervals = [
        (float(span["ts"]), float(span["ts"]) + float(span["dur"]), span)
        for span in work
        if float(span["ts"]) < end_bound and float(span["ts"]) + float(span["dur"]) > start_bound
    ]
    chain: List[Dict[str, Any]] = []
    gaps: List[Dict[str, Any]] = []
    epsilon = 1e-9
    t = end_bound
    while t > start_bound + epsilon:
        covering = [item for item in intervals if item[0] < t - epsilon and item[1] >= t - epsilon]
        if covering:
            begin, _, span = max(covering, key=lambda item: item[0])
            begin = max(begin, start_bound)
            chain.append(
                {
                    "span": span.get("span"),
                    "name": _span_label(span),
                    "cat": span.get("cat"),
                    "worker": str(span.get("tid", "") or span.get("pid", "?")),
                    "start_s": round(begin - start_bound, 6),
                    "dur_s": round(t - begin, 6),
                }
            )
            t = begin
            continue
        before = [item for item in intervals if item[1] < t - epsilon]
        if not before:
            gaps.append(
                {
                    "after": "campaign start",
                    "before": chain[-1]["name"] if chain else "campaign end",
                    "start_s": 0.0,
                    "dur_s": round(t - start_bound, 6),
                }
            )
            break
        _, end, span = max(before, key=lambda item: item[1])
        gaps.append(
            {
                "after": _span_label(span),
                "before": chain[-1]["name"] if chain else "campaign end",
                "start_s": round(end - start_bound, 6),
                "dur_s": round(t - end, 6),
            }
        )
        t = end
    chain.reverse()
    gaps.reverse()
    covered = sum(entry["dur_s"] for entry in chain)
    idle = sum(gap["dur_s"] for gap in gaps)
    return {
        "wall_clock_s": round(end_bound - start_bound, 6),
        "chain": chain,
        "gaps": gaps,
        "covered_s": round(covered, 6),
        "idle_s": round(idle, 6),
    }
