"""Append-only JSONL event log for campaign observability.

Every interesting campaign transition is one JSON line appended to a
shared ``events.jsonl`` (only spool campaigns keep one, inside the spool
directory, next to ``progress.json``).  Appends are a single small
``write()`` on a file opened in append mode, so concurrent workers and the
coordinator interleave whole lines, never fragments, and file order is the
global append order.

The taxonomy is closed (:data:`EVENT_KINDS`) so consumers — ``tail``, the
tests, the future control plane — can rely on it:

=================== ========================================================
kind                emitted when
=================== ========================================================
``campaign_start``    coordinator published a campaign's tasks onto a spool
``campaign_complete`` the coordinator joined its forked workers, with every
                      cell settled (or the campaign aborted)
``task_claimed``      a worker won the atomic claim on a task file
``task_completed``    a worker wrote the task's result shard
``task_reclaimed``    an expired lease was re-queued (dead/stalled worker)
``worker_start``      a worker process entered its claim loop
``worker_idle``       a worker found nothing claimable (once per idle stretch)
``worker_exit``       a worker left its loop (reason: complete/max_tasks/idle)
``worker_dead``       the coordinator observed a spawned worker exit early
``worker_respawn``    the coordinator started a replacement for a dead worker
``campaign_resumed``  a restarted coordinator adopted an interrupted campaign
``shard_torn``        a result shard failed sha256 verification (re-executed)
``task_quarantined``  a poison task was retired after repeated failed claims
``cell_timeout``      a worker's watchdog killed a cell past its deadline
=================== ========================================================

Schema note (v8 of this taxonomy): ``worker_exit`` carries
``events_dropped`` when the worker lost any line.  Workers no longer
stamp heartbeat files: the coordinator folds this log into each worker's
state (:func:`worker_states`), which ``progress.json`` publishes.
Schema note (v7 of this taxonomy): ``vector_batch`` and ``vector_evict``
are gone; the vector backend keeps its batch accounting in its
``VectorStats`` and its ``batch`` trace spans, and writes no event log.
``campaign_complete`` now follows the ``worker_exit`` of every worker the
coordinator forked.  Logs of older campaigns may still hold either kind,
and readers pass them through like any unknown kind.
Schema note (v6 of this taxonomy): ``task_superseded`` is gone.  A lost
cell now comes back only by republishing its own task, so no shard can
twin another under a different id; ``campaign_resumed`` carries
``scenario``, ``completed`` and ``torn_shards``, and no longer
``republished``.  Logs of older spools may still hold either, and
readers pass them through like any unknown kind or field.
Schema note (v5 of this taxonomy): the ``cache_hit`` and ``cache_miss``
kinds are gone; spool workers no longer touch the result cache, whose
counts live in its ``stats.jsonl`` ledger.  Logs of older spools may
still hold them, and readers pass them through like any unknown kind.
Schema note (v4 of this taxonomy): ``task_superseded`` carries ``task``
and ``cells``; ``cell_timeout`` carries ``task``, ``index`` and ``seconds``.
v3 also had one kind each for straggler speculation and work stealing,
which are gone; logs of older spools may still hold them, and readers
pass them through like any unknown kind.
Readers must stay tolerant of kinds they do not know:
``read_events``/``follow_events`` filter by the *requested* kinds only and
pass every other well-formed line through.

Event timestamps are wall-clock and appear **only** here and in progress
files — never in result records, so stores stay byte-identical with
observability on.  Emission is best-effort: an unwritable log counts the
drop and never fails the campaign.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Union

from repro.resilience.faults import inject

EVENT_KINDS = frozenset(
    {
        "campaign_start",
        "campaign_complete",
        "task_claimed",
        "task_completed",
        "task_reclaimed",
        "worker_start",
        "worker_idle",
        "worker_exit",
        "worker_dead",
        "worker_respawn",
        "campaign_resumed",
        "shard_torn",
        "task_quarantined",
        "cell_timeout",
    }
)


class EventLog:
    """One process's handle on a shared append-only event file.

    ``source`` (e.g. a worker id or ``"coordinator"``) is stamped on every
    event.  The log never creates the target directory: a worker pointed at
    a spool the coordinator has not initialised yet must not conjure it
    into existence, so such emissions are dropped (and counted) instead.
    """

    def __init__(self, path: Union[str, os.PathLike], source: Optional[str] = None):
        self.path = Path(path)
        self.source = source
        #: Events lost to OSError (missing directory, full disk); campaigns
        #: must never fail because observability could not write.
        self.dropped = 0

    def emit(self, kind: str, **fields: Any) -> Optional[Dict[str, Any]]:
        """Append one event line; returns the event dict, or ``None`` if dropped."""
        if kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {kind!r}; known: {', '.join(sorted(EVENT_KINDS))}"
            )
        event: Dict[str, Any] = {"ts": round(time.time(), 6), "kind": kind}
        if self.source is not None:
            event["source"] = self.source
        event.update(fields)
        try:
            inject("events.emit", kind=kind)
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps(event, sort_keys=True) + "\n")
        except OSError:
            self.dropped += 1
            return None
        return event


class EventCursor:
    """Reads a log's events from where its last read stopped.

    Each :meth:`read` returns the well-formed events appended since the
    previous one (all of them on the first).  A last line still missing
    its newline is held back until it completes: it is a live writer's
    append in flight.  Torn or non-object lines are skipped, and a missing
    file reads as empty.
    """

    def __init__(self, path: Union[str, os.PathLike], kinds: Optional[Iterable[str]] = None):
        self.path = Path(path)
        self.kinds = frozenset(kinds) if kinds is not None else None
        #: Bytes of the file consumed so far.
        self.offset = 0
        self._partial = b""

    def read(self, final: bool = False) -> List[Dict[str, Any]]:
        """The events appended since the last read; ``final`` also parses
        an unterminated last line (the log is not being written)."""
        try:
            with self.path.open("rb") as handle:
                handle.seek(self.offset)
                chunk = handle.read()
        except OSError:
            chunk = b""
        self.offset += len(chunk)
        *lines, self._partial = (self._partial + chunk).split(b"\n")
        if final:
            lines.append(self._partial)
            self._partial = b""
        events: List[Dict[str, Any]] = []
        for raw in lines:
            try:
                event = json.loads(raw)
            except ValueError:  # torn line (undecodable bytes included), or blank
                continue
            if not isinstance(event, dict):
                continue
            if self.kinds is not None and event.get("kind") not in self.kinds:
                continue
            events.append(event)
        return events


def read_events(
    path: Union[str, os.PathLike], kinds: Optional[Iterable[str]] = None
) -> List[Dict[str, Any]]:
    """Every parseable event in file order; missing file yields ``[]``."""
    return EventCursor(path, kinds).read(final=True)


def follow_events(
    path: Union[str, os.PathLike],
    poll_interval: float = 0.2,
    stop: Optional[Callable[[], bool]] = None,
    kinds: Optional[Iterable[str]] = None,
) -> Iterator[Dict[str, Any]]:
    """Yield events as they are appended (``tail --follow``).

    Polls the file for growth; returns once a read that began with
    ``stop()`` truthy finds no new data (so events racing the stop
    condition still drain).  Without ``stop`` it follows forever —
    callers handle KeyboardInterrupt.
    """
    cursor = EventCursor(path, kinds)
    while True:
        stopping = stop is not None and stop()
        offset = cursor.offset
        yield from cursor.read()
        if cursor.offset == offset:
            if stopping:
                return
            time.sleep(poll_interval)


#: Kinds a worker emits about itself; the first one names its source a worker.
_WORKER_KINDS = frozenset(
    {"worker_start", "worker_idle", "task_claimed", "task_completed", "cell_timeout", "worker_exit"}
)
#: A worker's counts; its ``worker_exit`` carries the exact totals.
_TOTALS = ("tasks_completed", "runs_executed", "failures", "timeouts", "busy_s", "events_dropped")


def worker_states(
    events: Iterable[Dict[str, Any]],
    now: float,
    previous: Optional[Dict[str, Dict[str, Any]]] = None,
) -> Dict[str, Dict[str, Any]]:
    """Each worker's state, counts and age, folded from the event log.

    Maps every worker ``source`` to its ``state`` (starting, idle,
    running, exited or dead), ``current_task`` (while it runs one),
    ``pid``, the counts in ``_TOTALS``, ``ts`` (its last event) and
    ``age_s`` (``now - ts``).  Counts add up ``task_completed`` and
    ``cell_timeout`` until ``worker_exit`` replaces them with its totals.
    The coordinator's ``worker_dead`` marks the worker with that pid dead
    unless it has exited.  Other kinds only advance a known worker's
    ``ts``.  ``previous``, an earlier result, is continued with the events
    logged since, and left unmodified.
    """
    states = {source: dict(entry) for source, entry in (previous or {}).items()}
    for event in events:
        kind, source, stamp = event.get("kind"), event.get("source"), event.get("ts")
        if not isinstance(kind, str) or not isinstance(source, str):
            continue  # no line this program writes
        if kind == "worker_dead":
            pid = event.get("pid")
            for entry in states.values():
                if pid is not None and entry["pid"] == pid and entry["state"] != "exited":
                    entry.update(state="dead", current_task=None)
            continue
        if source not in states:
            if kind not in _WORKER_KINDS:
                continue
            states[source] = dict.fromkeys(_TOTALS, 0)
            states[source].update(state="starting", current_task=None, pid=None, ts=None)
        entry = states[source]
        if isinstance(stamp, (int, float)):
            entry["ts"] = stamp
        if kind == "worker_start":
            entry["pid"] = event.get("pid")
        elif kind in ("worker_idle", "task_claimed", "task_completed", "cell_timeout"):
            entry["state"] = "idle" if kind == "worker_idle" else "running"
            entry["current_task"] = event.get("task") if kind == "task_claimed" else None
            if kind == "task_completed":
                entry["tasks_completed"] += 1
                entry["runs_executed"] += _count(event, "cells")
                entry["failures"] += _count(event, "failures")
                entry["busy_s"] = round(entry["busy_s"] + _count(event, "elapsed_s"), 6)
            elif kind == "cell_timeout":
                entry["timeouts"] += 1
        elif kind == "worker_exit":
            entry.update({name: _count(event, name) for name in _TOTALS})
            entry.update(state="exited", current_task=None)
    for entry in states.values():
        entry["age_s"] = None if entry["ts"] is None else round(max(0.0, now - entry["ts"]), 3)
    return states


def _count(event: Dict[str, Any], name: str) -> float:
    """``event[name]`` if it is a number, else 0."""
    value = event.get(name)
    return value if isinstance(value, (int, float)) and not isinstance(value, bool) else 0
