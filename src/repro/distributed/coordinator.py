"""Campaign coordinator for the spool backend.

:class:`SpoolBackend` plugs into
:class:`~repro.experiments.runner.ParallelCampaignRunner` as an
:class:`~repro.experiments.runner.ExecutionBackend`: it shards the pending
``(scenario, params, seed)`` cells into atomically-claimable task files on
a shared-filesystem spool, optionally forks local worker processes, and
merges the result shards back **in run-list order** — so a spool campaign's
records, aggregates and persisted store are byte-identical to the same
campaign run with ``jobs=1``.

Workers may equally be started by hand (possibly on other hosts sharing
the filesystem) with ``python -m repro.experiments worker <spool>``; the
coordinator does not care who executes a task, only that every run-list
index eventually has a shard record.

While collecting, the coordinator keeps the spool's ``progress.json``
current (cells pending/running/done/failed plus each worker's latest
heartbeat), appends campaign lifecycle events to the shared event log, and
reports reclaimed leases and early worker deaths *as they happen* via
``logging`` — not only in the terminal failure message.

Scheduling is a plain pull queue: the coordinator publishes fixed-size
tasks (``task_size`` cells each) once, and idle workers claim the next
pending one.  Recovery never changes that shape: an expired lease is
requeued, a torn shard's task is republished, a poison task is
quarantined and its cells recorded as failures, and cells that every
other path lost are republished as recovery tasks
(:func:`republish_missing`) once the queue drains.
"""

from __future__ import annotations

import dis
import hashlib
import json
import logging
import multiprocessing
import os
import sys
import time
from dataclasses import replace
from multiprocessing.process import BaseProcess
from types import CodeType
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.distributed.spool import (
    DEFAULT_LEASE_TIMEOUT,
    DEFAULT_MAX_TASK_ATTEMPTS,
    Spool,
    SpoolTask,
    TornShardError,
    shard_cells,
)
from repro.distributed.worker import CampaignPipes, run_worker
from repro.experiments.runner import ExecutionBackend, RunRecord
from repro.experiments.spec import RunSpec, ScenarioSpec, jsonable
from repro.experiments.store import ResultStore
from repro.observability.events import EventLog
from repro.observability.progress import ProgressTracker
from repro.observability.trace import TRACER
from repro.resilience.faults import GENERATION_ENV, arm_from_environment, inject
from repro.resilience.retry import RetryPolicy

logger = logging.getLogger(__name__)

#: Cells per recovery task republished by :func:`republish_missing`.
RECOVERY_TASK_CELLS = 32


def _campaign_id(
    payload: str,
    cells: Sequence[Tuple[Dict[str, Any], int, int]],
    task_size: int,
) -> str:
    """Content id of a campaign's exact work list (scenario + cells + sharding).

    Stored in ``campaign.json``: a restarted coordinator recomputes it from
    its own pending cells and resumes the spool's campaign *only* on an
    exact match — anything else is a different campaign and gets the usual
    purge-and-republish."""
    blob = json.dumps(
        {"scenario": payload, "cells": jsonable(list(cells)), "task_size": task_size},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: The spool needs POSIX anyway (SIGALRM cell deadlines).
_FORK = multiprocessing.get_context("fork")


def _forked_worker(options: Dict[str, Any], pipes: CampaignPipes, generation: int) -> None:
    """Run :func:`run_worker` from a new process's state: the fault plan
    re-read from the environment, no open coordinator span as default
    parent (the tracer re-anchors on the new pid by itself), and the respawn
    ``generation`` that generation-gated fault rules check."""
    pipes.enter_worker()
    # A fresh stream, as the exec'd worker's /dev/null was: another thread
    # may hold the inherited stdout's lock, which would hang the exit flush.
    sys.stdout = open(os.devnull, "w")
    os.environ[GENERATION_ENV] = str(generation)
    arm_from_environment()
    # What the CLI's ``worker`` command configures, without importing it.
    logging.basicConfig(
        level=logging.WARNING,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
        force=True,
    )
    with TRACER.parent_scope(None):
        run_worker(pipes=pipes, **options)


def _preimport_factory(factory: Any) -> None:
    """Import what ``factory``'s body imports (absolute imports only), and
    ``numpy.random``, which numpy loads lazily, so that every forked worker
    inherits them instead of importing them on its first task."""
    code = getattr(factory, "__code__", None)
    codes = [code] if code is not None else []
    while codes:
        code = codes.pop()
        codes.extend(const for const in code.co_consts if isinstance(const, CodeType))
        instructions = list(dis.get_instructions(code))
        for i, instruction in enumerate(instructions):
            if instruction.opname != "IMPORT_NAME" or i < 2:
                continue
            level, fromlist = instructions[i - 2].argval, instructions[i - 1].argval
            if level == 0:
                try:
                    __import__(instruction.argval, fromlist=fromlist or ())
                except Exception:  # noqa: BLE001 — the cell reports it, as before
                    pass
    import numpy.random  # noqa: F401


def republish_missing(
    publish: Callable[[SpoolTask], None],
    scenario: str,
    missing_cells: Sequence[Tuple[Dict[str, Any], int, int]],
    first: int = 0,
) -> List[SpoolTask]:
    """Re-publish cells no pending/claimed/quarantined task covers.

    The recovery path of last resort: whenever the queue drains with
    run-list indices still unfilled (say, a task file removed by hand
    while the campaign ran), the missing cells come back as fresh tasks
    of up to :data:`RECOVERY_TASK_CELLS` cells.  Ids use a ``task-r``
    prefix, numbered from ``first``, that sorts after every numeric id,
    so recovery work queues behind real work.  Returns the published
    tasks.
    """
    tasks = [
        SpoolTask(
            task_id=f"task-r{first + number:05d}",
            scenario=scenario,
            cells=tuple(missing_cells[start : start + RECOVERY_TASK_CELLS]),
        )
        for number, start in enumerate(range(0, len(missing_cells), RECOVERY_TASK_CELLS))
    ]
    for task in tasks:
        publish(task)
    return tasks


class SpoolDispatchError(RuntimeError):
    """The campaign cannot be dispatched onto a spool."""


class SpoolBackend(ExecutionBackend):
    """Execute a campaign through a shared-filesystem work queue.

    ``workers`` > 0 forks that many local worker processes for the
    duration of the campaign; with ``workers=0`` the coordinator only
    publishes tasks and waits for externally-started workers to drain them.

    ``poll_interval`` is how often the coordinator and hand-started
    workers poll the spool.  Forked workers and the coordinator that forked
    them wake on :class:`~repro.distributed.worker.CampaignPipes` events
    (a shard landed, a worker exited, the campaign closed), so for them it
    is only the longest either side waits.
    """

    name = "spool"

    def __init__(
        self,
        spool_root: Union[str, os.PathLike],
        workers: int = 0,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        task_size: int = 1,
        poll_interval: float = 0.05,
        timeout: Optional[float] = None,
        worker_cache_root: Optional[Union[str, os.PathLike]] = None,
        scenario_modules: Sequence[str] = (),
        max_task_attempts: int = DEFAULT_MAX_TASK_ATTEMPTS,
        max_respawns: int = 0,
        worker_retries: Optional[int] = None,
        cell_timeout: Optional[float] = None,
    ):
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if max_respawns < 0:
            raise ValueError(f"max_respawns must be >= 0, got {max_respawns}")
        if worker_retries is not None and worker_retries < 1:
            raise ValueError(f"worker_retries must be >= 1, got {worker_retries}")
        if cell_timeout is not None and cell_timeout <= 0:
            raise ValueError(f"cell_timeout must be positive, got {cell_timeout}")
        task_size = int(task_size)
        if task_size < 1:
            raise ValueError(f"task_size must be >= 1, got {task_size}")
        self.spool = Spool(
            spool_root, lease_timeout=lease_timeout, max_task_attempts=max_task_attempts
        )
        self.workers = int(workers)
        self.task_size = task_size
        self.cell_timeout = cell_timeout
        self.poll_interval = float(poll_interval)
        self.timeout = timeout
        self.worker_cache_root = worker_cache_root
        self.scenario_modules = tuple(scenario_modules)
        #: Budget of replacement workers spawned when a spawned worker dies
        #: before campaign completion.  Each respawn runs at the next fault
        #: generation (``REPRO_FAULT_GENERATION``), so generation-gated
        #: crash rules kill the first wave but let replacements run clean.
        self.max_respawns = int(max_respawns)
        #: Attempts per cell in spawned workers (None = their default).
        self.worker_retries = worker_retries
        #: Open only while :meth:`execute` runs with forked workers.
        self._pipes: Optional[CampaignPipes] = None

    # ----------------------------------------------------------------- backend
    def execute(
        self,
        spec: ScenarioSpec,
        pending: Sequence[RunSpec],
        records: List[Optional[RunRecord]],
        payload: Optional[object] = None,
        progress: Optional[ProgressTracker] = None,
        events: Optional[EventLog] = None,
        checked_cache: Optional[Any] = None,
    ) -> None:
        if not isinstance(payload, str):
            raise SpoolDispatchError(
                f"scenario {spec.name!r} is not resolvable by name in worker "
                "processes (ad-hoc spec?); register it — e.g. via a module "
                "importable with the worker's --import flag — to use the "
                "spool backend"
            )
        if self.workers:
            _preimport_factory(spec.factory)
        cells = [(run_spec.params, run_spec.seed, run_spec.index) for run_spec in pending]
        campaign_id = _campaign_id(payload, cells, self.task_size)
        tasks = shard_cells(cells, payload, self.task_size)
        metadata = {
            "scenario": spec.name,
            "cells": len(cells),
            "task_size": self.task_size,
            "campaign_id": campaign_id,
            "tasks": len(tasks),
        }
        if self.cell_timeout is not None:
            metadata["cell_timeout"] = self.cell_timeout
        if TRACER.enabled:
            metadata["trace_id"] = TRACER.trace_id
        checked = getattr(checked_cache, "location", None)
        if checked is not None:
            # Every cell published here already missed in this cache, so
            # workers that share it only publish to it (execute_task).
            metadata["checked_cache"] = checked
        recovery = self._try_resume(campaign_id, tasks, metadata)
        if recovery is None:
            self.spool.initialise(metadata=metadata)
            for task in tasks:
                self._publish(task)

        # The coordinator's own progress file lives inside the spool, where
        # `status <spool>` (and workers on other hosts) can see it; the
        # runner's tracker — when a store is attached — is fed the same
        # per-cell completions via ``progress``.
        events = EventLog(self.spool.events_path, source="coordinator")
        tracker = ProgressTracker(
            self.spool.progress_path, scenario=spec.name, backend=self.name
        )
        trackers = [tracker] + ([progress] if progress is not None else [])
        tracker.begin(
            total=len(records), reused=sum(1 for record in records if record is not None)
        )
        if recovery is not None:
            logger.warning(
                "resuming campaign %s on spool %s: %d shard(s) already done, "
                "%d torn shard(s) dropped, %d task(s) republished",
                campaign_id[:12],
                self.spool.root,
                recovery["completed"],
                recovery["torn_shards"],
                recovery["republished"],
            )
            events.emit("campaign_resumed", scenario=spec.name, **recovery)
        else:
            events.emit(
                "campaign_start",
                scenario=spec.name,
                cells=len(cells),
                tasks=len(tasks),
                workers=self.workers,
            )
        task_by_id = {task.task_id: task for task in tasks}
        worker_slots: List[Dict[str, Any]] = []
        self._pipes = CampaignPipes() if self.workers else None
        ok = False
        ingested: Set[str] = set()
        try:
            for _ in range(self.workers):
                worker_slots.append(
                    {"process": self._spawn_worker(), "generation": 0, "reported": False}
                )
            ingested = self._collect(
                pending,
                records,
                task_by_id,
                payload,
                worker_slots,
                events=events,
                trackers=trackers,
            )
            ok = True
        finally:
            # Let workers observe completion (or failure) and exit cleanly.
            self.spool.mark_complete()
            if self._pipes is not None:
                self._pipes.close_campaign()
            events.emit("campaign_complete", ok=ok)
            self._join_workers([slot["process"] for slot in worker_slots])
            if self._pipes is not None:
                self._pipes.close()
                self._pipes = None
            if ok:
                # A worker whose lease was reclaimed (its task quarantined
                # and recorded as failed, or re-run by a recovery task) can
                # still be mid-task; its shard lands during the drain, after
                # every cell is filled.  It is never merged — record the
                # discard so it stays visible in the event log.
                self._discard_late_shards(pending, ingested, events)
            # Joined workers have written their `exited` heartbeats; the
            # last liveness fold predates them.
            tracker.set_workers(self.spool.worker_heartbeats())
            tracker.finish(complete=ok)

    def finalize(self, spec: ScenarioSpec) -> None:
        """Publish the completion marker even when nothing was dispatched.

        A fully resumed/cached campaign never calls :meth:`execute`, but
        externally-started workers (``--workers 0`` deployments) still wait
        on the marker and would otherwise poll forever.
        """
        self.spool.root.mkdir(parents=True, exist_ok=True)
        self.spool.mark_complete()

    # --------------------------------------------------------------- internals
    def _publish(self, task: SpoolTask) -> None:
        """Publish one task, embedding trace context when tracing is on.

        The publish span's own id rides the task file as the worker-side
        parent — this is the cross-process stitch: whichever worker claims
        the task (spawned here or started by hand on another host) parents
        its task span to this publish span, and the publish timestamp lets
        that task span charge the task's queue wait.
        """
        if not TRACER.enabled:
            self.spool.publish_task(task)
            return
        with TRACER.span(
            "publish", cat="publish", task=task.task_id, cells=len(task.cells)
        ) as span:
            self.spool.publish_task(
                replace(
                    task,
                    trace={
                        "id": TRACER.trace_id,
                        "parent": span.span_id,
                        "ts": round(time.time(), 6),
                    },
                )
            )

    def _try_resume(
        self,
        campaign_id: str,
        tasks: Sequence[SpoolTask],
        metadata: Dict[str, Any],
    ) -> Optional[Dict[str, int]]:
        """Adopt an interrupted campaign's spool state instead of purging it.

        Called before :meth:`Spool.initialise`: when the spool's recorded
        ``campaign_id`` matches this exact work list, a previous coordinator
        (killed mid-campaign, crashed, or power-cut) left partial state we
        can converge from — valid shards are kept, torn shards dropped, and
        tasks that are nowhere (not pending, claimed, done, or quarantined)
        are republished.  Claims are deliberately *not* force-reclaimed:
        their holders may be live external workers, and expired leases are
        reaped by the normal collect loop.  Returns the recovery stats, or
        ``None`` when the spool holds a different campaign (purge as usual).
        """
        if self.spool.metadata().get("campaign_id") != campaign_id or not self.spool.exists():
            return None
        try:
            self.spool.complete_marker.unlink()
        except FileNotFoundError:
            pass
        torn = 0
        for task in tasks:
            shard_path = self.spool.results_dir / f"{task.task_id}.jsonl"
            if shard_path.exists() and not self.spool.verify_shard(task.task_id):
                try:
                    shard_path.unlink()
                except FileNotFoundError:
                    pass
                torn += 1
        task_ids = {task.task_id for task in tasks}
        present: Set[str] = set(self.spool.pending_task_ids())
        present.update(self.spool.claimed_task_ids())
        present.update(self.spool.quarantined_task_ids())
        done = set(self.spool.completed_task_ids()) & task_ids
        present.update(done)
        republished = 0
        for task in tasks:
            if task.task_id not in present:
                self._publish(task)
                republished += 1
        # Refresh the published lease/attempt policy for this coordinator.
        self.spool.write_campaign_metadata(metadata)
        return {"completed": len(done), "torn_shards": torn, "republished": republished}

    def _spawn_worker(self, generation: int = 0) -> BaseProcess:
        """Fork one local worker: it inherits the coordinator's imports,
        registry and source fingerprints instead of paying for its own."""
        options: Dict[str, Any] = {
            "spool_root": self.spool.root,
            "cache": self.worker_cache_root,
            "poll_interval": self.poll_interval,
            "scenario_modules": self.scenario_modules,
        }
        if self.worker_retries is not None:
            options["retry_policy"] = RetryPolicy(max_attempts=self.worker_retries)
        process = _FORK.Process(
            target=_forked_worker, args=(options, self._pipes, generation)
        )
        process.start()
        return process

    def _collect(
        self,
        pending: Sequence[RunSpec],
        records: List[Optional[RunRecord]],
        task_by_id: Dict[str, SpoolTask],
        scenario: str,
        worker_slots: Optional[List[Dict[str, Any]]] = None,
        events: Optional[EventLog] = None,
        trackers: Sequence[ProgressTracker] = (),
    ) -> Set[str]:
        expected: Set[int] = {run_spec.index for run_spec in pending}
        # Accept a shard record only when it is for this campaign's cell:
        # a stale worker from a previous campaign on the same spool may
        # still write shards whose task ids collide with ours.
        key_by_index: Dict[int, str] = {
            run_spec.index: run_spec.key for run_spec in pending
        }
        spec_by_index: Dict[int, RunSpec] = {
            run_spec.index: run_spec for run_spec in pending
        }
        filled: Set[int] = set()
        #: Indices filled with *synthesised* quarantine failures: a real
        #: shard arriving later (the reclaimed worker's own, a recovery
        #: task's) still heals them, keeping the merged store as close to
        #: serial as possible.
        synthesized: Set[int] = set()
        ingested: Set[str] = set()
        #: mtime at which an unmatched (stale) shard was last parsed, so the
        #: poll loop re-reads it only after a worker atomically replaces it.
        stale_shard_mtime: Dict[str, float] = {}

        def ingest_new_shards() -> None:
            for task_id in self.spool.completed_task_ids():
                if task_id in ingested:
                    continue
                shard_path = self.spool.results_dir / f"{task_id}.jsonl"
                try:
                    mtime = shard_path.stat().st_mtime
                except FileNotFoundError:
                    continue
                if stale_shard_mtime.get(task_id) == mtime:
                    continue
                try:
                    with TRACER.span("ingest", cat="ingest", task=task_id):
                        shard_records = self.spool.read_result_shard(task_id)
                except TornShardError:
                    # A partial write slipped to the final path (fault
                    # injection, or a filesystem that tore the rename's
                    # backing write).  Drop it and republish the task so
                    # its cells re-execute: merging half a shard would
                    # silently diverge from the serial store.
                    logger.warning(
                        "torn result shard %s detected; discarding and re-executing",
                        task_id,
                    )
                    try:
                        shard_path.unlink()
                    except FileNotFoundError:
                        pass
                    stale_shard_mtime.pop(task_id, None)
                    if events is not None:
                        events.emit("shard_torn", task=task_id)
                    task = task_by_id.get(task_id)
                    if task is not None and not (
                        (self.spool.tasks_dir / f"{task_id}.json").exists()
                        or (self.spool.claimed_dir / f"{task_id}.json").exists()
                        or (self.spool.quarantine_dir / f"{task_id}.json").exists()
                    ):
                        self._publish(task)
                    # A shard under an id this coordinator did not publish
                    # (another coordinator's recovery task) has no entry in
                    # task_by_id; its cells come back through the
                    # drain-time republish_missing catch-all.
                    continue
                except FileNotFoundError:
                    continue
                matched = True
                fresh = False
                for index, record in shard_records:
                    if index in expected and record.key == key_by_index[index]:
                        if index not in filled or index in synthesized:
                            fresh = True
                    else:
                        matched = False
                if matched and not fresh:
                    # Every cell already landed via an earlier shard under
                    # another id (a recovery task raced the original).
                    # First shard wins; this byte-identical twin is dropped.
                    ingested.add(task_id)
                    stale_shard_mtime.pop(task_id, None)
                    logger.info(
                        "discarding superseded shard %s (all %d cell(s) "
                        "already ingested)",
                        task_id,
                        len(shard_records),
                    )
                    if events is not None:
                        events.emit(
                            "task_superseded", task=task_id, cells=len(shard_records)
                        )
                    continue
                for index, record in shard_records:
                    if index in expected and record.key == key_by_index[index]:
                        records[index] = record
                        if index in synthesized:
                            synthesized.discard(index)  # late real result heals it
                        elif index not in filled:
                            filled.add(index)
                            for tracker in trackers:
                                tracker.record_record(ok=record.ok)
                if matched:
                    ingested.add(task_id)
                    stale_shard_mtime.pop(task_id, None)
                else:
                    # A stale shard (previous campaign's straggler) occupies
                    # this task id; re-read only once its mtime changes —
                    # i.e. the real worker atomically replaced it.
                    stale_shard_mtime[task_id] = mtime

        handled_quarantine: Set[str] = set()

        def absorb_quarantined() -> None:
            """Synthesise failed records for poison tasks so the campaign
            completes (with visible failures) instead of stalling forever."""
            for task_id in self.spool.quarantined_task_ids():
                if task_id in handled_quarantine:
                    continue
                handled_quarantine.add(task_id)
                task = task_by_id.get(task_id)
                if task is None:
                    # Ids this coordinator did not publish are not in
                    # task_by_id; read the quarantined task file itself —
                    # key verification below rejects leftovers from another
                    # campaign cell by cell.
                    try:
                        task = self.spool.read_quarantined_task(task_id)
                    except (OSError, ValueError, KeyError, TypeError):
                        continue
                attempts = max(1, self.spool.reclaim_count(task_id) + 1)
                timeout_idx = self.spool.timeout_indices(task_id)
                logger.error(
                    "task %s quarantined as poison after %d failed attempt(s); "
                    "its cells are recorded as failures "
                    "(`quarantine retry` re-queues it)",
                    task_id,
                    attempts,
                )
                if events is not None:
                    events.emit("task_quarantined", task=task_id, attempts=attempts)
                for params, seed, index in task.cells:
                    if index not in expected or index in filled:
                        continue
                    if index in timeout_idx:
                        error = (
                            f"cell killed by its wall-clock deadline in task "
                            f"{task_id} ({attempts} attempt(s))"
                        )
                        error_class = "CellTimeout"
                    else:
                        error = (
                            f"task {task_id} quarantined after {attempts} "
                            "failed execution attempt(s)"
                        )
                        error_class = "TaskQuarantined"
                    record = RunRecord(
                        scenario=task.scenario,
                        params=dict(params),
                        seed=seed,
                        status="failed",
                        error=error,
                        error_class=error_class,
                        attempts=attempts,
                    )
                    if record.key != key_by_index[index]:
                        continue  # another campaign's cell under our index
                    records[index] = record
                    filled.add(index)
                    synthesized.add(index)
                    for tracker in trackers:
                        tracker.record_record(ok=False)

        def update_liveness() -> None:
            """Fold claimed-cell counts and worker heartbeats into progress."""
            if not trackers:
                return
            running = sum(
                len(task_by_id[task_id].cells) if task_id in task_by_id else 1
                for task_id in self.spool.claimed_task_ids()
            )
            heartbeats = self.spool.worker_heartbeats()
            for tracker in trackers:
                tracker.set_running(running)
                tracker.set_workers(heartbeats)

        recovery_tasks = 0

        def republish_drained_missing() -> None:
            """Recovery of last resort: the queue drained but cells are missing.

            Covers what the per-task republish cannot: cells whose task file
            is gone from every spool directory.  Only fires when nothing is
            pending, claimed, or sitting as an un-ingested non-stale shard.
            """
            nonlocal recovery_tasks
            if filled == expected:
                return
            if self.spool.pending_task_ids() or self.spool.claimed_task_ids():
                return
            for task_id in self.spool.completed_task_ids():
                if task_id not in ingested and task_id not in stale_shard_mtime:
                    return  # a shard landed this poll; ingest it first
            missing = [
                (spec_by_index[index].params, spec_by_index[index].seed, index)
                for index in sorted(expected - filled)
            ]
            republished = republish_missing(
                self._publish, scenario, missing, first=recovery_tasks
            )
            recovery_tasks += len(republished)
            task_by_id.update((task.task_id, task) for task in republished)
            logger.warning(
                "queue drained with %d cell(s) unfilled; republished them "
                "as %d recovery task(s)",
                len(missing),
                len(republished),
            )

        # NOTE: respawns append to the caller's list so execute()'s finally
        # block joins replacements too, not just the first wave.
        worker_slots = worker_slots if worker_slots is not None else []
        respawns_left = self.max_respawns if worker_slots else 0
        started = time.time()
        while filled != expected:
            inject("coordinator.poll")
            ingest_new_shards()
            absorb_quarantined()
            update_liveness()
            if filled == expected:
                break
            # Spawned workers only exit on the completion marker, which is
            # not set yet: any exit here is a crash.  Report each death as it
            # is observed and — with respawn budget left — start a
            # replacement at the next fault generation.  With every slot
            # dead and no budget (and no external workers assumed), waiting
            # longer is hopeless — but sweep once more first, in case the
            # last worker died *after* writing the final shard.
            for slot in worker_slots:
                process = slot["process"]
                if slot["reported"] or process.exitcode is None:
                    continue
                slot["reported"] = True
                logger.warning(
                    "spawned spool worker (pid %d) exited early with return "
                    "code %s before campaign completion",
                    process.pid,
                    process.exitcode,
                )
                if events is not None:
                    events.emit(
                        "worker_dead", pid=process.pid, returncode=process.exitcode
                    )
                if respawns_left > 0:
                    respawns_left -= 1
                    generation = slot["generation"] + 1
                    replacement = self._spawn_worker(generation)
                    logger.warning(
                        "respawned worker (pid %d, generation %d; %d respawn(s) left)",
                        replacement.pid,
                        generation,
                        respawns_left,
                    )
                    if events is not None:
                        events.emit(
                            "worker_respawn",
                            pid=replacement.pid,
                            generation=generation,
                        )
                    worker_slots.append(
                        {"process": replacement, "generation": generation, "reported": False}
                    )
            if worker_slots and all(slot["reported"] for slot in worker_slots):
                ingest_new_shards()
                absorb_quarantined()
                if filled == expected:
                    break
                codes = [slot["process"].exitcode for slot in worker_slots]
                raise SpoolDispatchError(
                    f"all {len(worker_slots)} spawned spool worker(s) "
                    f"exited (return codes {codes}) with "
                    f"{len(expected - filled)} cell(s) unfinished; check the "
                    "workers' stderr for import or startup errors"
                )
            for task_id in self.spool.reclaim_expired():
                logger.warning(
                    "reclaimed expired lease on %s (worker dead or stalled)", task_id
                )
                if events is not None:
                    events.emit("task_reclaimed", task=task_id)
            republish_drained_missing()
            if self.timeout is not None and time.time() - started > self.timeout:
                missing = sorted(expected - filled)
                raise SpoolDispatchError(
                    f"spool campaign timed out after {self.timeout:.1f}s with "
                    f"{len(missing)} unfinished cell(s) (first missing run-list "
                    f"indices: {missing[:5]})"
                )
            if self._pipes is None:
                time.sleep(self.poll_interval)
            else:
                self._pipes.wait_landed(
                    self.poll_interval,
                    [slot["process"].sentinel for slot in worker_slots if not slot["reported"]],
                )
        return ingested

    def _discard_late_shards(
        self,
        pending: Sequence[RunSpec],
        ingested: Set[str],
        events: Optional[EventLog],
    ) -> None:
        """Account for late shards that landed after completion."""
        key_by_index = {run_spec.index: run_spec.key for run_spec in pending}
        for task_id in self.spool.completed_task_ids():
            if task_id in ingested:
                continue
            try:
                shard_records = self.spool.read_result_shard(task_id)
            except (TornShardError, OSError, ValueError, KeyError):
                continue
            if not shard_records or not all(
                record.key == key_by_index.get(index)
                for index, record in shard_records
            ):
                continue  # another campaign's stale shard, not our straggler
            logger.info(
                "discarding superseded late shard %s (%d cell(s), landed "
                "after completion)",
                task_id,
                len(shard_records),
            )
            if events is not None:
                events.emit(
                    "task_superseded", task=task_id, cells=len(shard_records)
                )

    def _join_workers(self, processes: Sequence[BaseProcess]) -> None:
        for process in processes:
            process.join(10.0)
            if process.exitcode is None:
                process.terminate()
                process.join(5.0)
            if process.exitcode is None:
                process.kill()
                process.join()


def merge_spool_results(
    spool: Union[str, os.PathLike, Spool],
    store: Optional[ResultStore] = None,
) -> List[RunRecord]:
    """Collect every result shard of a spool **in run-list order**.

    Returns the merged records; when ``store`` is given they are also
    appended to it (skipping keys the store already has), so merging a
    drained spool into a fresh store reproduces the ``jobs=1`` store
    byte-for-byte.  Two shards claiming the same run-list index with
    *different* cells is a mixed-campaign spool (e.g. a straggler worker
    from a previous campaign wrote after the spool was reused) — that
    raises instead of silently merging wrong data.
    """
    spool = spool if isinstance(spool, Spool) else Spool(spool)
    by_index: Dict[int, RunRecord] = {}
    try:
        shard_records = list(spool.iter_result_records())
    except TornShardError as exc:
        raise SpoolDispatchError(
            f"spool {spool.root} holds a torn result shard ({exc}); "
            "re-run the campaign on this spool to re-execute it before merging"
        ) from exc
    for index, record in shard_records:
        existing = by_index.get(index)
        if existing is not None and existing.key != record.key:
            raise SpoolDispatchError(
                f"spool {spool.root} mixes campaigns: run-list index {index} "
                f"has records for both {existing.key!r} and {record.key!r}; "
                "re-run the campaign on a clean spool"
            )
        by_index[index] = record
    merged = [by_index[index] for index in sorted(by_index)]
    if store is not None:
        store.merge(merged)
    return merged
