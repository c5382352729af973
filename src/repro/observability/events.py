"""Append-only JSONL event log for campaign observability.

Every interesting campaign transition is one JSON line appended to a
shared ``events.jsonl`` (for spool campaigns it lives inside the spool
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


def read_events(
    path: Union[str, os.PathLike], kinds: Optional[Iterable[str]] = None
) -> List[Dict[str, Any]]:
    """Every parseable event in file order; missing file yields ``[]``."""
    wanted = frozenset(kinds) if kinds is not None else None
    events: List[Dict[str, Any]] = []
    try:
        handle = Path(path).open("r", encoding="utf-8")
    except OSError:
        return events
    with handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                continue  # torn final line of a live log
            if not isinstance(event, dict):
                continue
            if wanted is not None and event.get("kind") not in wanted:
                continue
            events.append(event)
    return events


def follow_events(
    path: Union[str, os.PathLike],
    poll_interval: float = 0.2,
    stop: Optional[Callable[[], bool]] = None,
    kinds: Optional[Iterable[str]] = None,
) -> Iterator[Dict[str, Any]]:
    """Yield events as they are appended (``tail --follow``).

    Polls the file for growth; returns once ``stop()`` is truthy *and* no
    unread data remains (so events racing the stop condition still drain).
    Without ``stop`` it follows forever — callers handle KeyboardInterrupt.
    """
    wanted = frozenset(kinds) if kinds is not None else None
    path = Path(path)
    offset = 0
    buffer = b""
    while True:
        try:
            with path.open("rb") as handle:
                handle.seek(offset)
                chunk = handle.read()
        except OSError:
            chunk = b""
        if chunk:
            offset += len(chunk)
            buffer += chunk
            *lines, buffer = buffer.split(b"\n")
            for raw in lines:
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    event = json.loads(raw.decode("utf-8"))
                except (ValueError, UnicodeDecodeError):
                    continue
                if not isinstance(event, dict):
                    continue
                if wanted is not None and event.get("kind") not in wanted:
                    continue
                yield event
        else:
            if stop is not None and stop():
                return
            time.sleep(poll_interval)
