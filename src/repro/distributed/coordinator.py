"""Campaign coordinator for the spool backend.

:class:`SpoolBackend` plugs into
:class:`~repro.experiments.runner.ParallelCampaignRunner` as an
:class:`~repro.experiments.runner.ExecutionBackend`: it shards the pending
``(scenario, params, seed)`` cells into atomically-claimable task files on
a shared-filesystem spool, optionally forks local worker processes, and
once they are joined takes each cell's record from
:func:`~repro.distributed.spool.settle`, **in run-list order** — so a spool
campaign's records, aggregates and persisted store are byte-identical to
the same campaign run with ``jobs=1``, and to ``merge`` of its spool.

Workers may equally be started by hand (possibly on other hosts sharing
the filesystem) with ``python -m repro.experiments worker <spool>``; the
coordinator does not care who executes a task, only that every run-list
index eventually has a shard record.

While collecting, the coordinator keeps the spool's ``progress.json``
current (cells pending/running/done/failed plus each worker's state,
folded from the events appended to the shared event log since its last
poll), appends campaign lifecycle events to that log, and
reports reclaimed leases and early worker deaths *as they happen* via
``logging`` — not only in the terminal failure message.

Scheduling is a plain pull queue: the coordinator publishes its tasks
once, sized by one deterministic schedule
(:func:`~repro.distributed.spool.chunk_sizes`) or a fixed ``task_size``,
and idle workers claim the next pending one.  Recovery never changes
that shape: an expired lease is requeued, a torn shard is dropped, a
poison task is quarantined and its cells counted as failures, and once
the queue drains with cells still unfilled, each task that holds one is
republished under its own id.  That drain rule is the only way back for
a lost cell (a torn shard, a task file removed by hand, a resumed
campaign's missing tasks), so every shard a campaign writes is named
after one of its own tasks.
"""

from __future__ import annotations

import dis
import hashlib
import json
import logging
import multiprocessing
import os
import sys
import tempfile
import time
from dataclasses import replace
from multiprocessing.process import BaseProcess
from pathlib import Path
from types import CodeType
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.distributed.spool import (
    DEFAULT_LEASE_TIMEOUT,
    DEFAULT_MAX_TASK_ATTEMPTS,
    Spool,
    SpoolDispatchError,
    SpoolTask,
    TornShardError,
    settle,
    shard_cells,
)
from repro.distributed.worker import CampaignPipes, run_worker
from repro.experiments.registry import REGISTRY
from repro.experiments.runner import ExecutionBackend, RunRecord
from repro.experiments.spec import RunSpec, ScenarioSpec
from repro.experiments.store import ResultStore
from repro.observability.events import EventCursor, EventLog, worker_states
from repro.observability.progress import ProgressTracker
from repro.observability.trace import TRACER
from repro.resilience.faults import GENERATION_ENV, arm_from_environment, inject
from repro.resilience.retry import RetryPolicy

logger = logging.getLogger(__name__)


def _campaign_id(tasks: Sequence[SpoolTask]) -> str:
    """Content id of a campaign's exact task list (ids, scenario, cells).

    Stored in ``campaign.json``: a restarted coordinator recomputes it from
    its own pending cells and resumes the spool's campaign *only* on an
    exact match — anything else (other cells, another task size or worker
    count) is a different campaign and gets the usual purge-and-republish."""
    blob = json.dumps([task.to_json_dict() for task in tasks], sort_keys=True)
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


class SpoolBackend(ExecutionBackend):
    """Execute a campaign through a shared-filesystem work queue.

    ``workers`` > 0 forks that many local worker processes for the
    duration of the campaign; with ``workers=0`` the coordinator only
    publishes tasks and waits for externally-started workers to drain them.
    Without a ``spool_root`` each campaign runs on a temporary spool,
    removed after it (on failure too), which only forked workers reach.
    ``task_size`` fixes the cells per task; by default the sizes follow
    :func:`~repro.distributed.spool.chunk_sizes` for ``workers``.

    ``poll_interval`` is how often the coordinator and hand-started
    workers poll the spool.  Forked workers and the coordinator that forked
    them wake on :class:`~repro.distributed.worker.CampaignPipes` events
    (a shard landed, a worker exited, the campaign closed), so for them it
    is only the longest either side waits.

    The backend and its workers never touch the result cache: the runner
    looks every cell up before :meth:`execute` publishes it and writes the
    executed cells back afterwards, one batch per campaign.
    """

    name = "spool"

    def __init__(
        self,
        spool_root: Optional[Union[str, os.PathLike]],
        workers: int = 0,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        task_size: Optional[int] = None,
        poll_interval: float = 0.05,
        timeout: Optional[float] = None,
        scenario_modules: Sequence[str] = (),
        max_task_attempts: int = DEFAULT_MAX_TASK_ATTEMPTS,
        max_respawns: int = 0,
        retry_policy: Optional[RetryPolicy] = None,
        cell_timeout: Optional[float] = None,
    ):
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if spool_root is None and workers < 1:
            raise ValueError(
                "workers must be >= 1 without a spool directory: no other "
                "worker can reach a temporary spool"
            )
        if max_respawns < 0:
            raise ValueError(f"max_respawns must be >= 0, got {max_respawns}")
        if cell_timeout is not None and cell_timeout <= 0:
            raise ValueError(f"cell_timeout must be positive, got {cell_timeout}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        task_size = None if task_size is None else int(task_size)
        if task_size is not None and task_size < 1:
            raise ValueError(f"task_size must be >= 1, got {task_size}")
        #: ``None``: a temporary spool per campaign (see :meth:`execute`).
        self.spool_root = spool_root
        self.spool = Spool(
            spool_root or "",
            lease_timeout=lease_timeout,
            max_task_attempts=max_task_attempts,
            source="coordinator",
        )
        self.workers = int(workers)
        self.task_size = task_size
        self.cell_timeout = cell_timeout
        self.poll_interval = float(poll_interval)
        self.timeout = timeout
        self.scenario_modules = tuple(scenario_modules)
        #: Budget of replacement workers spawned when a spawned worker dies
        #: before campaign completion.  Each respawn runs at the next fault
        #: generation (``REPRO_FAULT_GENERATION``), so generation-gated
        #: crash rules kill the first wave but let replacements run clean.
        self.max_respawns = int(max_respawns)
        #: Retry policy of spawned workers (None = their default).
        self.retry_policy = retry_policy
        #: Open only while :meth:`execute` runs with forked workers.
        self._pipes: Optional[CampaignPipes] = None
        #: Whether :meth:`execute` already wrote this campaign's marker.
        self._marked = False

    # ----------------------------------------------------------------- backend
    def execute(
        self,
        spec: ScenarioSpec,
        pending: Sequence[RunSpec],
        records: List[Optional[RunRecord]],
        progress: Optional[ProgressTracker] = None,
    ) -> None:
        # Workers resolve the scenario by name in the built-in registry.
        if spec.name not in REGISTRY or REGISTRY.get(spec.name) is not spec:
            raise SpoolDispatchError(
                f"scenario {spec.name!r} is not resolvable by name in worker "
                "processes (ad-hoc spec?); register it — e.g. via a module "
                "importable with the worker's --import flag — to use the "
                "spool backend"
            )
        if self.spool_root is not None:
            self._execute(spec, pending, records, progress)
            return
        with tempfile.TemporaryDirectory(prefix="repro-spool-") as root:
            self.spool.root = Path(root)
            self._execute(spec, pending, records, progress)

    def _execute(
        self,
        spec: ScenarioSpec,
        pending: Sequence[RunSpec],
        records: List[Optional[RunRecord]],
        progress: Optional[ProgressTracker],
    ) -> None:
        if self.workers:
            _preimport_factory(spec.factory)
        cells = [(run_spec.params, run_spec.seed, run_spec.index) for run_spec in pending]
        tasks = shard_cells(cells, spec.name, self.task_size, self.workers)
        campaign_id = _campaign_id(tasks)
        metadata = {
            "scenario": spec.name,
            "cells": len(cells),
            "campaign_id": campaign_id,
            "tasks": len(tasks),
        }
        if self.cell_timeout is not None:
            metadata["cell_timeout"] = self.cell_timeout
        if TRACER.enabled:
            metadata["trace_id"] = TRACER.trace_id
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
        cursor = EventCursor(self.spool.events_path)
        workers: Dict[str, Dict[str, Any]] = {}

        def fold_workers() -> Dict[str, Dict[str, Any]]:
            """Each worker's state, advanced by the events logged since the
            last call: a poll reads only the bytes appended since."""
            workers.update(worker_states(cursor.read(), time.time(), workers))
            return workers

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
                "%d torn shard(s) dropped",
                campaign_id[:12],
                self.spool.root,
                recovery["completed"],
                recovery["torn_shards"],
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
        try:
            for _ in range(self.workers):
                worker_slots.append(
                    {"process": self._spawn_worker(), "generation": 0, "reported": False}
                )
            # Keyed after the fork, while the workers start up.
            key_by_index = {run_spec.index: run_spec.key for run_spec in pending}
            shards = self._collect(
                key_by_index,
                task_by_id,
                worker_slots,
                events=events,
                trackers=trackers,
                fold_workers=fold_workers,
            )
            ok = True
        finally:
            # Let workers observe completion (or failure) and exit cleanly.
            self.spool.mark_complete()
            self._marked = True
            if self._pipes is not None:
                self._pipes.close_campaign()
            self._join_workers([slot["process"] for slot in worker_slots])
            # After the join, so every forked worker's last event precedes it.
            events.emit("campaign_complete", ok=ok)
            if self._pipes is not None:
                self._pipes.close()
                self._pipes = None
            # Joined workers have logged their `worker_exit`; the last
            # liveness fold predates it.  A killed one never logged it, and
            # must not read as still running.
            states = fold_workers()
            for slot in worker_slots:
                worker = states.get(f"worker-{slot['process'].pid}")
                if worker is not None and worker["state"] != "exited":
                    worker.update(state="dead", current_task=None)
            for each in trackers:
                each.set_workers(states)
            if not ok:
                tracker.finish(complete=False)
        # Settled only now, after the join: a worker whose lease was
        # reclaimed may still have been mid-task, and the shard it wrote
        # during the drain heals its quarantined cell here as in `merge`.
        try:
            while True:
                try:
                    settled = settle(self.spool, key_by_index, shards)
                    break
                except TornShardError as torn:
                    self._drop_torn_shard(torn.task_id, events)
            if len(settled) < len(key_by_index):
                raise SpoolDispatchError(
                    f"a cell lost its shard or quarantine on spool {self.spool.root} "
                    "while the workers were joined; re-run the campaign on this spool"
                )
        except SpoolDispatchError:
            tracker.finish(complete=False)
            raise
        for index in key_by_index:
            records[index] = settled[index]
        # Counted from the settled records: a late shard may have healed a
        # cell the live tally counted as failed when it was quarantined.
        tracker.finish(records=records)

    def finalize(self, spec: ScenarioSpec) -> None:
        """Publish the completion marker when nothing was dispatched.

        A fully resumed/cached campaign never calls :meth:`execute`, but
        externally-started workers (``--workers 0`` deployments) still wait
        on the marker and would otherwise poll forever.  A campaign that
        did dispatch has its marker already, and a temporary spool is gone
        by now and has no such workers.
        """
        marked, self._marked = self._marked, False
        if marked or self.spool_root is None:
            return
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
        can converge from — valid shards are kept and torn shards dropped.
        Tasks that are nowhere (not pending, claimed, done, or quarantined)
        come back through the collect loop's drain rule.  Claims are
        deliberately *not* force-reclaimed: their holders may be live
        external workers, and expired leases are reaped by the normal
        collect loop.  Returns the recovery stats, or ``None`` when the
        spool holds a different campaign (purge as usual).
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
        done = set(self.spool.completed_task_ids()) & {task.task_id for task in tasks}
        # Refresh the published lease/attempt policy for this coordinator.
        self.spool.write_campaign_metadata(metadata)
        return {"completed": len(done), "torn_shards": torn}

    def _spawn_worker(self, generation: int = 0) -> BaseProcess:
        """Fork one local worker: it inherits the coordinator's imports,
        registry and source fingerprints instead of paying for its own."""
        options: Dict[str, Any] = {
            "spool_root": self.spool.root,
            "poll_interval": self.poll_interval,
            "scenario_modules": self.scenario_modules,
            "retry_policy": self.retry_policy,
        }
        process = _FORK.Process(
            target=_forked_worker, args=(options, self._pipes, generation)
        )
        process.start()
        return process

    def _collect(
        self,
        key_by_index: Dict[int, str],
        task_by_id: Dict[str, SpoolTask],
        worker_slots: Optional[List[Dict[str, Any]]] = None,
        events: Optional[EventLog] = None,
        trackers: Sequence[ProgressTracker] = (),
        fold_workers: Callable[[], Dict[str, Dict[str, Any]]] = dict,
    ) -> Dict[str, List[Tuple[int, RunRecord]]]:
        """Poll until every cell has a shard or a quarantine failure, for
        progress and termination only; returns the shards parsed whose every
        record is this campaign's (its key matches the cell's: a stale worker
        from a previous campaign may write shards under our task ids).
        Each poll hands ``fold_workers()``, the workers' states, to the
        ``trackers``."""
        expected: Set[int] = set(key_by_index)
        #: Cells with a shard or a quarantine failure: progress, termination.
        filled: Set[int] = set()
        shards: Dict[str, List[Tuple[int, RunRecord]]] = {}
        #: mtime at which an unmatched (stale) shard was last parsed, so the
        #: poll loop re-reads it only after a worker atomically replaces it.
        stale_shard_mtime: Dict[str, float] = {}

        def ingest_new_shards() -> None:
            for task_id in self.spool.completed_task_ids():
                if task_id in shards:
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
                    # Its cells come back through the drain rule.
                    self._drop_torn_shard(task_id, events)
                    stale_shard_mtime.pop(task_id, None)
                    continue
                except FileNotFoundError:
                    continue
                matched = True
                for index, record in shard_records:
                    if key_by_index.get(index) != record.key:
                        matched = False
                        continue
                    if index not in filled:
                        filled.add(index)
                        for tracker in trackers:
                            tracker.record_record(ok=record.ok)
                if not matched:
                    # A stale shard (previous campaign's straggler) occupies
                    # this task id; re-read only once its mtime changes —
                    # i.e. the real worker atomically replaced it.
                    stale_shard_mtime[task_id] = mtime
                    continue
                shards[task_id] = shard_records
                stale_shard_mtime.pop(task_id, None)

        handled_quarantine: Set[str] = set()

        def absorb_quarantined() -> None:
            """Count a poison task's cells as failed, so the campaign
            completes (with visible failures) instead of stalling forever;
            settle() gives them their records unless a shard lands first.
            The process whose rename quarantined the task logged its event."""
            for task_id in self.spool.quarantined_task_ids():
                if task_id in handled_quarantine:
                    continue
                handled_quarantine.add(task_id)
                # The key check below rejects another campaign's leftovers.
                failures = self.spool.quarantine_failures(task_id)
                if not failures:
                    continue
                attempts = failures[0][1].attempts
                logger.error(
                    "task %s quarantined as poison after %d failed attempt(s); "
                    "its cells are recorded as failures "
                    "(`quarantine retry` re-queues it)",
                    task_id,
                    attempts,
                )
                for index, record in failures:
                    if key_by_index.get(index) == record.key and index not in filled:
                        filled.add(index)
                        for tracker in trackers:
                            tracker.record_record(ok=False)

        def update_liveness() -> None:
            """Fold claimed-cell counts and worker states into progress."""
            running = sum(
                len(task_by_id[task_id].cells) if task_id in task_by_id else 1
                for task_id in self.spool.claimed_task_ids()
            )
            states = fold_workers()
            for tracker in trackers:
                tracker.set_running(running)
                tracker.set_workers(states)

        def republish_drained() -> None:
            """The one way back for a lost cell: when the queue drains with
            cells unfilled (a dropped torn shard, a task file removed by
            hand, a resumed campaign's missing task), republish each task
            that holds one under its own id.  Only fires when nothing is
            pending, claimed, newly quarantined, or sitting as an
            un-ingested non-stale shard.
            """
            if filled == expected:
                return
            if self.spool.pending_task_ids() or self.spool.claimed_task_ids():
                return
            if set(self.spool.quarantined_task_ids()) - handled_quarantine:
                return  # this poll's reclaim quarantined a task; absorb it first
            for task_id in self.spool.completed_task_ids():
                if task_id not in shards and task_id not in stale_shard_mtime:
                    return  # a shard landed this poll; ingest it first
            lost = [
                task
                for task in task_by_id.values()
                if any(index not in filled for _, _, index in task.cells)
            ]
            for task in lost:
                self._publish(task)
            logger.warning(
                "queue drained with %d cell(s) unfilled; republished %d task(s): %s",
                len(expected - filled),
                len(lost),
                ", ".join(task.task_id for task in lost),
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
            for task_id, outcome in self.spool.reclaim_expired().items():
                if outcome != "requeued":
                    continue  # absorbed on the next poll
                logger.warning(
                    "reclaimed expired lease on %s (worker dead or stalled)", task_id
                )
                if events is not None:
                    events.emit("task_reclaimed", task=task_id)
            republish_drained()
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
        return shards

    def _drop_torn_shard(self, task_id: str, events: Optional[EventLog]) -> None:
        """Delete a torn result shard (a partial write slipped to the final
        path): merging half a shard would diverge from the serial store."""
        logger.warning("torn result shard %s detected; discarding it", task_id)
        (self.spool.results_dir / f"{task_id}.jsonl").unlink(missing_ok=True)
        if events is not None:
            events.emit("shard_torn", task=task_id)

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
    """The spool's records as :func:`settle` decides them, **in run-list order**.

    When ``store`` is given they are also appended to it (skipping keys the
    store already has), so merging a finished campaign's spool into a fresh
    store reproduces that campaign's store byte-for-byte, quarantine
    failures included.  A torn shard or a mixed-campaign spool raises
    :class:`SpoolDispatchError` instead of merging wrong data.
    """
    spool = spool if isinstance(spool, Spool) else Spool(spool)
    try:
        settled = settle(spool)
    except TornShardError as exc:
        raise SpoolDispatchError(
            f"spool {spool.root} holds a torn result shard ({exc}); "
            "re-run the campaign on this spool to re-execute it before merging"
        ) from exc
    merged = [settled[index] for index in sorted(settled)]
    if store is not None:
        store.merge(merged)
    return merged
