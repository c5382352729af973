"""Shared-filesystem work queue for distributed campaigns.

A *spool* is a directory any number of coordinator and worker processes —
on one host or many, as long as they see the same filesystem — use as a
lock-free work queue::

    spool/
      campaign.json        # campaign metadata written by the coordinator
      complete.marker      # written when every cell has a merged result;
                           # names the campaign_id it closes
      tasks/task-00000.json    # pending tasks (one JSON file per task)
      claimed/task-00000.json  # claimed tasks; mtime is the lease heartbeat
      results/task-00000.jsonl # result shards (records + sha256 trailer)
      quarantine/task-00000.json # poison tasks retired after N failed claims
      attempts.jsonl       # append-only reclaim/quarantine/reset ledger

Claiming is a single ``os.rename(tasks/X, claimed/X)``: rename of an
existing file is atomic on POSIX, so exactly one of any number of racing
workers wins and the losers get ``FileNotFoundError``.  A claimed task's
lease is its file's mtime; workers touch it between cells, and any process
may *reclaim* a claimed task whose lease expired (dead worker) by renaming
it back into ``tasks/``.  Result shards are written to a temporary file
and renamed into place, so a shard is either absent or complete — and each
shard additionally ends with a ``{"sha256": ...}`` trailer over its record
lines, so a *torn* shard (a filesystem that lost the tail of a write, or a
fault-injected partial write) is detected on read and re-executed rather
than merged.  Because every cell is deterministic, a reclaim racing a
slow-but-alive worker is harmless: both executions produce the same shard
bytes.

A task reclaimed ``max_task_attempts`` times without producing a shard is
*poison* — it is moved to ``quarantine/`` instead of back into the queue,
so a cell that crashes its executor cannot grind the campaign forever.
The reclaim ledger (``attempts.jsonl``) is how racing reclaimers agree on
the attempt count: the process that wins the reclaim rename appends one
line, and logs the one ``task_quarantined`` event of a quarantine.
``quarantine list|retry`` on the CLI inspects and re-queues them.

One rule, :func:`settle`, decides the record each cell of a spool keeps,
for every reader: the coordinator's store, ``merge`` and ``fsck``.  The
first verified shard by task id wins a cell (any later one is a
byte-identical twin), a verified shard beats a quarantine failure, and a
quarantined cell that no shard covers keeps the failed record
:meth:`Spool.quarantine_failures` builds.  A shard that lands late, even
after its cell was quarantined, therefore heals the cell for every reader.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.experiments.runner import RunRecord
from repro.experiments.spec import jsonable
from repro.observability.events import EventLog
from repro.resilience.faults import inject

# Canonical home is the observability layer (its progress files need the
# same never-torn guarantee); re-exported here for the existing importers.
from repro.observability.progress import CampaignPaths, atomic_write_text
from repro.observability.trace import TRACER, read_trace_file

SPOOL_VERSION = 1

#: Default seconds without a heartbeat after which a claim is reclaimable.
DEFAULT_LEASE_TIMEOUT = 60.0

#: Default failed-claim count after which a task is quarantined as poison.
DEFAULT_MAX_TASK_ATTEMPTS = 3


class SpoolDispatchError(RuntimeError):
    """The campaign cannot be dispatched onto, or merged from, a spool."""


class TornShardError(RuntimeError):
    """A result shard failed sha256 verification (torn/partial write)."""

    def __init__(self, task_id: str, detail: str):
        super().__init__(f"result shard {task_id} failed verification: {detail}")
        self.task_id = task_id


@dataclass(frozen=True)
class SpoolTask:
    """One published task: a shard of campaign cells for a single scenario."""

    task_id: str
    scenario: str
    #: ``(params, seed, run-list index)`` per cell.
    cells: Tuple[Tuple[Dict[str, Any], int, int], ...]
    #: Optional tracing context riding the task file: ``{"id": trace id,
    #: "parent": the coordinator's publish span id, "ts": publish
    #: wall-clock}``.  This is how trace ids propagate to *external*
    #: workers with zero environment plumbing — any worker that claims the
    #: task adopts the trace and parents its spans to the publish span;
    #: ``ts`` lets the worker's task span charge queue wait precisely.
    #: ``None`` (tracing off) serializes to nothing, keeping task files
    #: byte-identical to PR 7's when tracing is disabled.
    trace: Optional[Dict[str, Any]] = None

    def to_json_dict(self) -> Dict[str, Any]:
        # Params go through the same jsonable() reduction as store keys and
        # records, so enum/numpy-valued params survive the spool round-trip
        # instead of crashing json.dumps.  (Factories see the JSON shape —
        # e.g. tuples as lists — which canonical keys already equate.)
        payload: Dict[str, Any] = {
            "task_id": self.task_id,
            "scenario": self.scenario,
            "cells": [
                {"params": jsonable(dict(params)), "seed": seed, "index": index}
                for params, seed, index in self.cells
            ],
        }
        if self.trace is not None:
            payload["trace"] = dict(self.trace)
        return payload

    @classmethod
    def from_json_dict(cls, payload: Dict[str, Any]) -> "SpoolTask":
        trace = payload.get("trace")
        return cls(
            task_id=payload["task_id"],
            scenario=payload["scenario"],
            cells=tuple(
                (dict(cell["params"]), int(cell["seed"]), int(cell["index"]))
                for cell in payload["cells"]
            ),
            trace=dict(trace) if isinstance(trace, dict) else None,
        )


@dataclass(frozen=True)
class ClaimedTask:
    """A task this process owns until it writes the result shard."""

    task: SpoolTask
    claimed_path: Path

    @property
    def task_id(self) -> str:
        return self.task.task_id


class Spool:
    """The coordinator/worker-shared work-queue directory."""

    def __init__(
        self,
        root: Union[str, os.PathLike],
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        max_task_attempts: int = DEFAULT_MAX_TASK_ATTEMPTS,
        source: Optional[str] = None,
    ):
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        if max_task_attempts < 1:
            raise ValueError("max_task_attempts must be >= 1")
        self.root = Path(root)
        self.lease_timeout = float(lease_timeout)
        self.max_task_attempts = int(max_task_attempts)
        #: This process in the event log (a worker id, ``"coordinator"``):
        #: the source of the events the spool itself emits.
        self.source = source

    # ------------------------------------------------------------------ layout
    @property
    def tasks_dir(self) -> Path:
        return self.root / "tasks"

    @property
    def claimed_dir(self) -> Path:
        return self.root / "claimed"

    @property
    def results_dir(self) -> Path:
        return self.root / "results"

    @property
    def campaign_path(self) -> Path:
        return self.root / "campaign.json"

    @property
    def complete_marker(self) -> Path:
        return self.root / "complete.marker"

    @property
    def events_path(self) -> Path:
        """The campaign's shared append-only event log (``tail`` reads this)."""
        return CampaignPaths(self.root, spool=True).events

    @property
    def progress_path(self) -> Path:
        """The coordinator-maintained progress snapshot (``status`` reads this)."""
        return CampaignPaths(self.root, spool=True).progress

    @property
    def quarantine_dir(self) -> Path:
        """Poison tasks retired after ``max_task_attempts`` failed claims."""
        return self.root / "quarantine"

    @property
    def attempts_path(self) -> Path:
        """Append-only reclaim/quarantine/reset ledger (``attempts.jsonl``)."""
        return self.root / "attempts.jsonl"

    def initialise(self, metadata: Optional[Dict[str, Any]] = None) -> None:
        """Create the spool directories and write the campaign metadata.

        Any state left over from a previous campaign on the same directory
        (task files, claims, result shards, the completion marker, the
        event log and progress) is purged first — task ids restart at
        ``task-00000`` per campaign, so stale shards would otherwise be
        ingested as this campaign's results.
        """
        for directory in (
            self.tasks_dir,
            self.claimed_dir,
            self.results_dir,
            self.quarantine_dir,
        ):
            directory.mkdir(parents=True, exist_ok=True)
            for entry in directory.iterdir():
                if entry.is_file():
                    entry.unlink()
        for stale in (
            self.complete_marker,
            self.events_path,
            self.progress_path,
            self.attempts_path,
        ):
            if stale.exists():
                stale.unlink()
        # Trace span files are per-pid, so a fresh campaign must purge the
        # previous one's — a recycled pid would otherwise append to (and a
        # merge would interleave with) a stale campaign's spans.  This
        # process's own file already holds this campaign's spans (the
        # runner's cache lookup), so it keeps them and only them.
        own = TRACER.path.resolve() if TRACER.enabled else None
        for path in self.root.glob("trace-*.jsonl"):
            if path.resolve() != own:
                path.unlink()
                continue
            spans = read_trace_file(path)
            current = [span for span in spans if span.get("trace") == TRACER.trace_id]
            if len(current) < len(spans):
                lines = "".join(json.dumps(span, sort_keys=True) + "\n" for span in current)
                atomic_write_text(path, lines, durable=False)
        self.write_campaign_metadata(metadata)

    def write_campaign_metadata(self, metadata: Optional[Dict[str, Any]] = None) -> None:
        """(Re)write ``campaign.json`` — also used by coordinator resume,
        which must refresh the published lease/attempt policy without the
        purge that :meth:`initialise` performs."""
        payload = {
            "version": SPOOL_VERSION,
            "lease_timeout": self.lease_timeout,
            "max_task_attempts": self.max_task_attempts,
        }
        payload.update(metadata or {})
        self._atomic_write(self.campaign_path, json.dumps(payload, indent=2, sort_keys=True))

    def metadata(self) -> Dict[str, Any]:
        if not self.campaign_path.exists():
            return {}
        try:
            with self.campaign_path.open("r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return {}  # mid-rewrite by the coordinator; try again next poll

    def refresh_lease_timeout(self) -> float:
        """Adopt the lease timeout the coordinator published, if any.

        Reclaim decisions must use the *coordinator's* lease, not each
        worker's default — otherwise an idle worker with a shorter lease
        would re-queue (and duplicate) a live peer's long-running task.
        """
        metadata = self.metadata()
        attempts = metadata.get("max_task_attempts")
        if attempts:
            try:
                cap = int(attempts)
            except (TypeError, ValueError):
                cap = 0
            if cap > 0:
                # Quarantine thresholds must also be campaign-wide: a worker
                # with a lower default would quarantine a task its peers
                # still consider retryable.
                self.max_task_attempts = cap
        published = metadata.get("lease_timeout")
        if published:
            try:
                value = float(published)
            except (TypeError, ValueError):
                return self.lease_timeout
            if value > 0:
                self.lease_timeout = value
        return self.lease_timeout

    def exists(self) -> bool:
        return self.tasks_dir.is_dir() and self.results_dir.is_dir()

    # ----------------------------------------------------------------- publish
    def publish_task(self, task: SpoolTask) -> Path:
        """Atomically add one task file to the pending queue."""
        path = self.tasks_dir / f"{task.task_id}.json"
        self._atomic_write(path, json.dumps(task.to_json_dict(), sort_keys=True))
        return path

    # ------------------------------------------------------------------- claim
    def pending_task_ids(self) -> List[str]:
        return self._task_ids(self.tasks_dir, ".json")

    def claimed_task_ids(self) -> List[str]:
        return self._task_ids(self.claimed_dir, ".json")

    def completed_task_ids(self) -> List[str]:
        return self._task_ids(self.results_dir, ".jsonl")

    def claim(self, task_id: str) -> Optional[ClaimedTask]:
        """Try to claim one specific pending task; ``None`` when lost the race."""
        source = self.tasks_dir / f"{task_id}.json"
        target = self.claimed_dir / f"{task_id}.json"
        try:
            # Freshen the mtime *before* the rename: the rename preserves it,
            # so the claim enters claimed/ with a live lease rather than the
            # publish-time mtime (which may already look expired to a
            # reclaimer if the task waited in the queue longer than a lease).
            os.utime(source)
            os.rename(source, target)
        except FileNotFoundError:
            return None  # another worker claimed it first
        except OSError:
            return None
        try:
            with target.open("r", encoding="utf-8") as handle:
                task = SpoolTask.from_json_dict(json.load(handle))
        except FileNotFoundError:
            # A peer reclaimed the task in the instant after our rename
            # (only possible if the lease is shorter than the utime-to-here
            # window); let it go — the task is back in the queue.
            return None
        return ClaimedTask(task=task, claimed_path=target)

    def claim_next(self) -> Optional[ClaimedTask]:
        """Claim the first pending task that is not already done or claimed."""
        for task_id in self.pending_task_ids():
            claimed = self.claim(task_id)
            if claimed is not None:
                return claimed
        return None

    def heartbeat(self, claimed: ClaimedTask) -> None:
        """Refresh the lease on a claimed task (touch its mtime)."""
        rule = inject("spool.lease_heartbeat", task=claimed.task_id)
        if rule is not None and rule.kind == "stall":
            return  # injected renewal failure: the lease silently ages out
        try:
            os.utime(claimed.claimed_path)
        except FileNotFoundError:
            pass  # reclaimed from under us; the shard write still settles it

    def release(self, claimed: ClaimedTask) -> None:
        """Drop the claim marker once the result shard is in place."""
        try:
            claimed.claimed_path.unlink()
        except FileNotFoundError:
            pass

    def reclaim_expired(self, now: Optional[float] = None) -> Dict[str, str]:
        """Re-queue claimed tasks whose lease expired without a result shard.

        Any process may call this; renaming the claim file back into
        ``tasks/`` is atomic, so concurrent reclaimers cannot duplicate a
        task.  A claimed task whose *valid* shard already exists is settled
        instead (the claim marker is removed); a torn shard is deleted so
        the task re-executes.  A task on its ``max_task_attempts``-th
        failed claim is quarantined rather than re-queued.  Returns what
        this call did to each task it retired, in claim order:
        ``"requeued"`` or ``"quarantined"``.
        """
        now = time.time() if now is None else now
        retired: Dict[str, str] = {}
        for task_id in self.claimed_task_ids():
            claim_path = self.claimed_dir / f"{task_id}.json"
            shard_path = self.results_dir / f"{task_id}.jsonl"
            if shard_path.exists():
                if self.verify_shard(task_id):
                    try:
                        claim_path.unlink()
                    except FileNotFoundError:
                        pass
                    continue
                # Torn shard: drop it and treat the claim like any other
                # (the lease decides whether the writer is dead yet).
                try:
                    shard_path.unlink()
                except FileNotFoundError:
                    pass
            try:
                age = now - claim_path.stat().st_mtime
            except FileNotFoundError:
                continue
            if age < self.lease_timeout:
                continue
            outcome = self._retire_claim(claim_path, task_id)
            if outcome is not None:
                retired[task_id] = outcome
        return retired

    def requeue(
        self, claimed: ClaimedTask, event: str = "reclaim", **extra: Any
    ) -> Optional[str]:
        """Voluntarily give up a claim (e.g. shard write keeps failing).

        Counts as a failed attempt in the quarantine ledger, so a task
        whose spool I/O always fails is eventually quarantined rather than
        ping-ponging between this worker and the queue forever.  ``event``
        names the ledger line's cause (``"reclaim"`` for generic failures,
        ``"timeout"`` when a cell deadline killed the attempt — the
        coordinator reads it back to label quarantined cells with
        ``error_class=CellTimeout``); ``extra`` fields (e.g. the timed-out
        cell ``index``) ride the line.  Returns ``"requeued"``,
        ``"quarantined"``, or ``None`` when the claim was already gone (a
        peer reclaimed it).
        """
        return self._retire_claim(claimed.claimed_path, claimed.task_id, event, **extra)

    def _retire_claim(
        self, claim_path: Path, task_id: str, event: str = "reclaim", **extra: Any
    ) -> Optional[str]:
        """Move a failed claim back to pending — or into quarantine at cap.

        Only the process whose rename succeeds appends the ledger line, so
        racing reclaimers agree on the attempt count without locks; for the
        same reason it alone logs the ``task_quarantined`` event.
        """
        attempt = self.reclaim_count(task_id) + 1
        if attempt >= self.max_task_attempts:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            target = self.quarantine_dir / f"{task_id}.json"
            outcome = "quarantined"
            ledger_event = "quarantine"
        else:
            target = self.tasks_dir / f"{task_id}.json"
            outcome = "requeued"
            ledger_event = event
        try:
            os.rename(claim_path, target)
        except OSError:
            return None
        if outcome == "quarantined" and event != "reclaim":
            # The cap-hitting attempt's *cause* rides the quarantine line
            # (as ``cause``), so a deadline-killed final attempt stays
            # attributable without inflating the attempt count.
            self._append_attempt(task_id, ledger_event, cause=event, **extra)
        else:
            self._append_attempt(task_id, ledger_event, **extra)
        if outcome == "quarantined":
            EventLog(self.events_path, source=self.source).emit(
                "task_quarantined", task=task_id, attempts=attempt
            )
        return outcome

    def campaign_cell_timeout(self) -> Optional[float]:
        """The per-cell deadline the coordinator published, if any.

        It comes from ``campaign.json`` (seconds; 0 or absent means no
        deadline) so every worker, spawned or started by hand on another
        host, applies the same one.
        """
        timeout = self.metadata().get("cell_timeout")
        if isinstance(timeout, (int, float)) and timeout > 0:
            return float(timeout)
        return None

    # -------------------------------------------------------------- quarantine
    def quarantined_task_ids(self) -> List[str]:
        return self._task_ids(self.quarantine_dir, ".json")

    def read_quarantined_task(self, task_id: str) -> SpoolTask:
        path = self.quarantine_dir / f"{task_id}.json"
        with path.open("r", encoding="utf-8") as handle:
            return SpoolTask.from_json_dict(json.load(handle))

    def quarantine_retry(self, task_id: str) -> bool:
        """Re-queue one quarantined task with a reset attempt counter."""
        source = self.quarantine_dir / f"{task_id}.json"
        try:
            os.rename(source, self.tasks_dir / f"{task_id}.json")
        except OSError:
            return False
        self._append_attempt(task_id, "reset")
        return True

    def failed_attempts(self, task_id: str) -> Tuple[int, Set[int]]:
        """A task's failed-claim count since its last quarantine reset, and
        the run-list indices a cell deadline killed, from the attempts
        ledger (its ``timeout`` lines, or a quarantine line whose
        ``cause`` is ``timeout``)."""
        count = 0
        timed_out: Set[int] = set()
        try:
            with self.attempts_path.open("r", encoding="utf-8") as handle:
                for line in handle:
                    try:
                        entry = json.loads(line)
                    except ValueError:
                        continue  # blank line or torn ledger tail
                    if entry.get("task") != task_id:
                        continue
                    event = entry.get("event")
                    if event == "reset":
                        count = 0
                    elif event in ("reclaim", "timeout"):
                        count += 1
                    index = entry.get("index")
                    if "timeout" in (event, entry.get("cause")) and isinstance(index, int):
                        timed_out.add(index)
        except OSError:
            pass
        return count, timed_out

    def reclaim_count(self, task_id: str) -> int:
        """Failed-claim count for a task since its last quarantine reset."""
        return self.failed_attempts(task_id)[0]

    def quarantine_failures(self, task_id: str) -> List[Tuple[int, RunRecord]]:
        """The failed record each cell of quarantined ``task_id`` settles to
        when no shard covers it: ``CellTimeout`` for a cell a deadline
        killed, ``TaskQuarantined`` for the rest (none if unreadable)."""
        try:
            task = self.read_quarantined_task(task_id)
        except (OSError, ValueError, KeyError, TypeError):
            return []
        count, timed_out = self.failed_attempts(task_id)
        attempts = count + 1
        failures: List[Tuple[int, RunRecord]] = []
        for params, seed, index in task.cells:
            if index in timed_out:
                error_class = "CellTimeout"
                error = (
                    f"cell killed by its wall-clock deadline in task {task_id} "
                    f"({attempts} attempt(s))"
                )
            else:
                error_class = "TaskQuarantined"
                error = f"task {task_id} quarantined after {attempts} failed execution attempt(s)"
            record = RunRecord(
                scenario=task.scenario,
                params=dict(params),
                seed=seed,
                status="failed",
                error=error,
                error_class=error_class,
                attempts=attempts,
            )
            failures.append((index, record))
        return failures

    def _append_attempt(self, task_id: str, event: str, **extra: Any) -> None:
        entry = {"task": task_id, "event": event, "ts": round(time.time(), 6)}
        entry.update(extra)
        line = json.dumps(entry, sort_keys=True)
        try:
            with self.attempts_path.open("a", encoding="utf-8") as handle:
                handle.write(line + "\n")
        except OSError:
            pass  # the ledger is advisory; losing a line only delays quarantine

    # ----------------------------------------------------------------- results
    def write_result_shard(
        self, task_id: str, records: Sequence[Tuple[int, RunRecord]]
    ) -> Path:
        """Atomically write one task's result shard (index-tagged records).

        The shard ends with a ``{"sha256": ...}`` trailer over the record
        lines; :meth:`read_result_shard` verifies it, so even a filesystem
        that tears the atomic rename's backing write (or an injected
        ``torn_write`` fault) cannot slip half a shard into a merge.
        """
        lines = [
            json.dumps({"index": index, "record": record.to_json_dict()}, sort_keys=True)
            for index, record in records
        ]
        body = "".join(line + "\n" for line in lines)
        trailer = json.dumps(
            {"sha256": hashlib.sha256(body.encode("utf-8")).hexdigest()},
            sort_keys=True,
        )
        content = body + trailer + "\n"
        path = self.results_dir / f"{task_id}.jsonl"
        rule = inject("spool.write_shard", task=task_id)
        if rule is not None and rule.kind == "torn_write":
            # Write a truncated shard straight to the final path, bypassing
            # tmp+rename — the failure the sha256 trailer exists to catch.
            keep = int(rule.args.get("keep_bytes", max(1, len(content) // 2)))
            with path.open("w", encoding="utf-8") as handle:
                handle.write(content[:keep])
            return path
        self._atomic_write(path, content)
        return path

    def read_result_shard(self, task_id: str) -> List[Tuple[int, RunRecord]]:
        """Read one verified shard; raises :class:`TornShardError` if torn."""
        path = self.results_dir / f"{task_id}.jsonl"
        with path.open("r", encoding="utf-8") as handle:
            text = handle.read()
        if not text.endswith("\n"):
            raise TornShardError(task_id, "does not end with a newline")
        lines = text.splitlines()
        if not lines:
            raise TornShardError(task_id, "empty file")
        try:
            trailer = json.loads(lines[-1])
        except ValueError as exc:
            raise TornShardError(task_id, f"unparseable trailer: {exc}") from exc
        if not isinstance(trailer, dict) or "sha256" not in trailer:
            raise TornShardError(task_id, "missing sha256 trailer")
        body = text[: len(text) - len(lines[-1]) - 1]
        digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
        if digest != trailer["sha256"]:
            raise TornShardError(task_id, "sha256 mismatch")
        results: List[Tuple[int, RunRecord]] = []
        for line in body.splitlines():
            line = line.strip()
            if not line:
                continue
            payload = json.loads(line)
            results.append(
                (int(payload["index"]), RunRecord.from_json_dict(payload["record"]))
            )
        return results

    def verify_shard(self, task_id: str) -> bool:
        """True when the shard exists and passes sha256 verification."""
        try:
            self.read_result_shard(task_id)
        except (TornShardError, OSError, ValueError, KeyError):
            return False
        return True

    # -------------------------------------------------------------- completion
    def mark_complete(self) -> None:
        """Close the campaign ``campaign.json`` describes: the marker names
        its ``campaign_id`` (empty when the metadata carries none)."""
        campaign_id = self.metadata().get("campaign_id") or ""
        self._atomic_write(self.complete_marker, f"complete\n{campaign_id}\n")

    def is_complete(self) -> bool:
        """Whether the marker closes the campaign ``campaign.json`` describes.

        A marker naming another campaign is a leftover and does not count.
        """
        try:
            lines = self.complete_marker.read_text("utf-8").splitlines()
        except OSError:
            return False
        closed = lines[1] if len(lines) > 1 else ""
        return closed == (self.metadata().get("campaign_id") or "")

    def is_drained(self) -> bool:
        """No pending and no claimed tasks remain."""
        return not self.pending_task_ids() and not self.claimed_task_ids()

    # --------------------------------------------------------------- internals
    @staticmethod
    def _task_ids(directory: Path, suffix: str) -> List[str]:
        if not directory.is_dir():
            return []
        return sorted(
            entry.name[: -len(suffix)]
            for entry in directory.iterdir()
            if entry.name.endswith(suffix)
        )

    _atomic_write = staticmethod(atomic_write_text)


def chunk_sizes(cells: int, workers: int) -> List[int]:
    """The default task sizes of ``cells`` cells on ``workers`` workers.

    Factoring (Hummel, Schonberg and Flynn, CACM 1992): rounds of
    ``workers`` equal chunks of ``ceil(remaining / (2 * workers))`` cells.
    Sizes never grow and the last chunks hold one cell, so a cheap
    campaign pays for few tasks and a slow cell near the end holds no
    cheap ones hostage.  With ``workers=0`` (a count the coordinator
    cannot know) every task holds one cell.
    """
    if workers < 1:
        return [1] * cells
    sizes: List[int] = []
    remaining = cells
    while remaining:
        size = -(-remaining // (2 * workers))
        for _ in range(min(workers, remaining // size)):
            sizes.append(size)
            remaining -= size
    return sizes


def shard_cells(
    cells: Sequence[Tuple[Dict[str, Any], int, int]],
    scenario: str,
    task_size: Optional[int] = None,
    workers: int = 0,
) -> List[SpoolTask]:
    """Split a campaign's pending cells into :class:`SpoolTask` shards.

    Each task holds ``task_size`` cells, or, when it is ``None``, follows
    :func:`chunk_sizes` for ``workers`` workers.  Task ids are zero-padded
    so lexicographic claim order equals run-list order and workers drain
    the queue front to back.
    """
    if task_size is None:
        sizes = chunk_sizes(len(cells), workers)
    elif task_size < 1:
        raise ValueError(f"task_size must be >= 1, got {task_size}")
    else:
        sizes = [task_size] * -(-len(cells) // task_size)
    bounds = list(itertools.accumulate(sizes, initial=0))
    return [
        SpoolTask(task_id=f"task-{number:05d}", scenario=scenario, cells=tuple(cells[start:end]))
        for number, (start, end) in enumerate(zip(bounds, bounds[1:]))
    ]


def settle(
    spool: Spool,
    key_by_index: Optional[Mapping[int, str]] = None,
    shards: Optional[Mapping[str, Sequence[Tuple[int, RunRecord]]]] = None,
) -> Dict[int, RunRecord]:
    """The record each run-list index of ``spool`` keeps: the first verified
    shard by task id wins a cell, and a quarantined cell no shard covers
    gets its :meth:`Spool.quarantine_failures` record.

    With ``key_by_index``, a record whose key differs from its cell's is
    another campaign's leftover and skipped; without it, two shards that
    disagree on a cell raise :class:`SpoolDispatchError`.  ``shards`` holds
    shards the caller already parsed, by task id; the rest are read here,
    and a torn one raises :class:`TornShardError`.
    """
    parsed = shards or {}
    settled: Dict[int, RunRecord] = {}
    for task_id in spool.completed_task_ids():
        records = parsed.get(task_id)
        for index, record in spool.read_result_shard(task_id) if records is None else records:
            if key_by_index is not None and key_by_index.get(index) != record.key:
                continue
            first = settled.setdefault(index, record)
            if first.key != record.key:
                raise SpoolDispatchError(
                    f"spool {spool.root} mixes campaigns: run-list index {index} "
                    f"has records for both {first.key!r} and {record.key!r}; "
                    "re-run the campaign on a clean spool"
                )
    for task_id in spool.quarantined_task_ids():
        for index, record in spool.quarantine_failures(task_id):
            if key_by_index is None or key_by_index.get(index) == record.key:
                settled.setdefault(index, record)
    return settled
