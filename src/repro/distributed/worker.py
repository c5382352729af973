"""Pull-based campaign worker: claims spool tasks and writes result shards.

``python -m repro.experiments worker <spool>`` runs this loop.  Workers are
stateless and symmetrical — any number may point at the same spool, on one
host or many — and coordinate purely through the spool's atomic renames:

1. claim the first pending task (atomic ``os.rename``);
2. resolve the task's scenario against the registry;
3. execute each cell, refreshing the claim lease between cells;
4. atomically write the result shard and drop the claim.

Workers never touch the result cache; the campaign runner alone reads
and writes it (see :func:`execute_task`).

A worker that finds nothing to claim reclaims expired leases (rescuing
tasks from dead peers) and waits until the coordinator marks the campaign
complete, its idle timeout expires, or its task budget is spent.  A
hand-started worker polls for the marker; a forked one waits on the
coordinator's pipe (:class:`CampaignPipes`), whose EOF wakes it at once.
Idle waits are jittered with a seed derived from the worker id, so N idle
workers spread their lease-rescue sweeps instead of racing the same
expired lease in the same tick (the first rename still wins either way).

Cell deadlines: with a ``cell_timeout`` (the worker's own, or the one the
coordinator published in ``campaign.json``, so spawned and hand-started
workers apply the same), a ``SIGALRM`` watchdog kills any cell that
exceeds its wall-clock budget; the task is requeued with a ``timeout``
ledger event (feeding the quarantine threshold) and no shard is written,
so results stay byte-identical to ``jobs=1``.

Observability: each worker appends to the spool's shared event log (task
claimed/completed, reclaims it performs, its own start/idle/exit
transitions, its totals on exit), which the coordinator folds into
``progress.json``.  The log is advisory and best-effort — a worker on a
spool that does not exist yet stays silent and keeps polling.
"""

from __future__ import annotations

import importlib
import logging
import os
import random
import select
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.distributed.scheduler import CellTimeout, cell_deadline
from repro.distributed.spool import ClaimedTask, Spool
from repro.experiments.registry import (
    ScenarioRegistry,
    UnknownScenarioError,
    load_builtin_scenarios,
)
from repro.experiments.runner import RunRecord, execute_run_with_retry, unresolved_record
from repro.experiments.spec import RunSpec, encode_params
from repro.observability.events import EventLog
from repro.observability.trace import TRACER
from repro.resilience.faults import inject
from repro.resilience.retry import SPOOL_IO_RETRY_POLICY, CircuitBreaker, RetryPolicy

logger = logging.getLogger(__name__)


@dataclass
class WorkerStats:
    """What one worker process did before exiting."""

    worker_id: str
    tasks_completed: int = 0
    runs_executed: int = 0
    failures: int = 0
    #: Cells killed by the ``--cell-timeout`` watchdog.
    timeouts: int = 0
    #: Wall seconds spent executing tasks (excludes idle polling).
    busy_s: float = 0.0
    #: Why the main loop returned: "complete" | "max_tasks" | "idle_timeout".
    exit_reason: str = ""


def _readable(fds: Sequence[int], timeout: float) -> List[int]:
    """Those of ``fds`` that turn readable (or hit EOF) within ``timeout`` s."""
    poller = select.poll()  # unlike select(), no FD_SETSIZE ceiling
    for fd in fds:
        poller.register(fd, select.POLLIN)
    return [fd for fd, _ in poller.poll(timeout * 1000.0)]


class CampaignPipes:
    """The two pipes a coordinator opens before forking its local workers.

    * *campaign closed* — every fork drops its copy of the write end first
      thing, so the coordinator holds the only one; closing it right after
      the completion marker is written gives every worker waiting on the
      read end EOF at once.
    * *shard landed* — a worker writes one byte (without blocking; a full
      pipe already holds a wake-up) after each task attempt ends, and the
      coordinator waits on the read end instead of sleeping.

    Hand-started workers have no pipes and poll the spool instead.
    """

    def __init__(self) -> None:
        self.closed_r, self.closed_w = os.pipe()
        self.landed_r, self.landed_w = os.pipe()
        os.set_blocking(self.landed_w, False)
        self._open = {self.closed_r, self.closed_w, self.landed_r, self.landed_w}
        self._campaign_closed = False

    def _close(self, fd: int) -> None:
        if fd in self._open:
            self._open.discard(fd)
            os.close(fd)

    # ------------------------------------------------------------ worker side
    def enter_worker(self) -> None:
        """In a forked worker: drop the coordinator's ends."""
        self._close(self.closed_w)
        self._close(self.landed_r)

    def wait_idle(self, timeout: float) -> None:
        """Wait up to ``timeout`` for the campaign to close.  After EOF it
        is a plain sleep: a coordinator that died without writing the
        marker leaves the worker polling, as a hand-started one would."""
        if self._campaign_closed:
            time.sleep(timeout)
        elif _readable([self.closed_r], timeout):
            self._campaign_closed = True

    def note_landed(self) -> None:
        try:
            os.write(self.landed_w, b"\0")
        except OSError:  # full (a wake-up is pending) or coordinator gone
            pass

    # ------------------------------------------------------- coordinator side
    def close_campaign(self) -> None:
        """Wake every idle fork: the completion marker is written."""
        self._close(self.closed_w)

    def wait_landed(self, timeout: float, sentinels: Sequence[int]) -> None:
        """Wait up to ``timeout`` for a shard to land or a sentinel to fire."""
        if self.landed_r in _readable([self.landed_r, *sentinels], timeout):
            os.read(self.landed_r, 65536)

    def close(self) -> None:
        for fd in list(self._open):
            self._close(fd)


def _import_scenario_modules(modules: Sequence[str]) -> None:
    """Import modules whose import side-effect registers extra scenarios."""
    for module in modules:
        importlib.import_module(module)


def execute_task(
    claimed: ClaimedTask,
    spool: Spool,
    registry: ScenarioRegistry,
    stats: Optional[WorkerStats] = None,
    events: Optional[EventLog] = None,
    retry_policy: Optional[RetryPolicy] = None,
    breaker: Optional[CircuitBreaker] = None,
    cell_timeout: Optional[float] = None,
) -> List[Tuple[int, RunRecord]]:
    """Run one claimed task's cells and write its result shard.

    With ``cell_timeout`` set, each cell executes under a wall-clock
    deadline (:func:`~repro.distributed.scheduler.cell_deadline`); a
    runaway cell is killed with :class:`CellTimeout`, which — being a
    ``BaseException`` — aborts the whole task *without* writing a shard
    (the worker loop requeues the claim with a ``timeout`` ledger event).

    Cell execution goes through the shared retry policy (same one the
    inline backend uses, so attempt counts — and therefore failed
    records — are byte-identical across backends).  The shard write itself
    retries under the quick spool-I/O policy; if it still fails the
    ``OSError`` propagates to the worker loop, which requeues the claim.

    Cache: a worker neither reads nor writes the result cache.  The
    campaign runner looked every published cell up already, and it writes
    the executed cells back in one batch once the campaign settles.

    Tracing: a task file published by a tracing coordinator carries the
    trace context (``task.trace``), which this worker *adopts* — it
    configures its own tracer into the spool directory and parents its
    task span to the coordinator's publish span — so external workers join
    the trace with no environment plumbing.  The task span carries the
    task's queue wait (claim time minus publish time, the only place it
    can be measured); its cells' spans parent to it.
    """
    task = claimed.task
    started = time.perf_counter()
    trace_info = task.trace
    worker_label = stats.worker_id if stats is not None else None
    if trace_info is not None and not TRACER.enabled:
        TRACER.configure(spool.root, trace_id=trace_info.get("id"), source=worker_label)
    queue_wait: Optional[float] = None
    publish_ts = (trace_info or {}).get("ts")
    if isinstance(publish_ts, (int, float)):
        queue_wait = max(0.0, time.time() - float(publish_ts))
    publish_span = (trace_info or {}).get("parent")
    spec = None
    resolve_error: Optional[str] = None
    try:
        spec = registry.get(task.scenario)
    except UnknownScenarioError as exc:
        resolve_error = f"worker could not resolve scenario: {exc.args[0]}"

    results: List[Tuple[int, RunRecord]] = []
    # One encoding per distinct params of the task, by ``repr``: the task
    # file's params are JSON values, whose reprs are equal only when their
    # types are too (``==`` equates ``True``, ``1`` and ``1.0``).
    encodings: Dict[str, str] = {}
    with TRACER.span(
        "task",
        cat="task",
        parent=publish_span if trace_info is not None else ...,
        task=task.task_id,
        scenario=task.scenario,
        cells=len(task.cells),
        **({"queue_wait_s": round(queue_wait, 6)} if queue_wait is not None else {}),
    ):
        for params, seed, index in task.cells:
            inject("worker.cell", task=task.task_id, index=index, scenario=task.scenario)
            text = repr(params)
            params_json = encodings.get(text)
            if params_json is None:
                params_json = encodings[text] = encode_params(params)
            cell = RunSpec(
                scenario=task.scenario, params=params, seed=seed, index=index,
                params_json=params_json,
            )
            if spec is None:
                record = unresolved_record(cell, resolve_error)
            else:
                with cell_deadline(cell_timeout, task=task.task_id, index=index):
                    record = execute_run_with_retry(
                        spec, cell, policy=retry_policy, breaker=breaker
                    )
                if stats is not None:
                    stats.runs_executed += 1
            if stats is not None and not record.ok:
                stats.failures += 1
            results.append((index, record))
            spool.heartbeat(claimed)
        with TRACER.span("shard.write", cat="io", task=task.task_id):
            SPOOL_IO_RETRY_POLICY.call(
                lambda: spool.write_result_shard(task.task_id, results),
                key=f"shard|{task.task_id}",
            )
        spool.release(claimed)
    elapsed = time.perf_counter() - started
    if stats is not None:
        stats.tasks_completed += 1
        stats.busy_s += elapsed
    if events is not None:
        events.emit(
            "task_completed",
            task=task.task_id,
            cells=len(task.cells),
            failures=sum(1 for _, record in results if not record.ok),
            elapsed_s=round(elapsed, 6),
        )
    return results


def run_worker(
    spool_root: Union[str, os.PathLike],
    *,
    registry: Optional[ScenarioRegistry] = None,
    poll_interval: float = 0.2,
    max_tasks: Optional[int] = None,
    idle_timeout: Optional[float] = None,
    lease_timeout: Optional[float] = None,
    scenario_modules: Sequence[str] = (),
    worker_id: Optional[str] = None,
    retry_policy: Optional[RetryPolicy] = None,
    cell_timeout: Optional[float] = None,
    pipes: Optional[CampaignPipes] = None,
) -> WorkerStats:
    """The worker main loop; returns once there is nothing left to do.

    Exit conditions: the coordinator marked the campaign complete, the
    ``max_tasks`` budget is spent, or no task could be claimed for
    ``idle_timeout`` seconds (``None`` waits for the completion marker
    indefinitely).  Reclaim decisions follow the lease timeout the
    coordinator published in ``campaign.json`` unless ``lease_timeout``
    explicitly overrides it; the same holds for ``cell_timeout`` (see
    :meth:`Spool.campaign_cell_timeout`).  ``pipes`` is set only in a
    worker the coordinator forked (see :class:`CampaignPipes`).
    """
    _import_scenario_modules(scenario_modules)
    if registry is None:
        registry = load_builtin_scenarios()
    stats = WorkerStats(worker_id=worker_id or f"worker-{os.getpid()}")
    spool = (
        Spool(spool_root, source=stats.worker_id)
        if lease_timeout is None
        else Spool(spool_root, lease_timeout=lease_timeout, source=stats.worker_id)
    )
    # A ``sleep`` here stands for a worker that is slow to start up.
    inject("worker.start", worker=stats.worker_id)
    # Seeded per worker id: each worker's idle polling is deterministic in
    # isolation but decorrelated from its peers', so N idle workers fan out
    # over a poll interval instead of racing the same expired lease in the
    # same tick (thundering-herd reclaim).
    jitter = random.Random(stats.worker_id)
    if TRACER.enabled:
        # Tracing already on (inherited by a worker forked from a tracing
        # coordinator): label this process's trace lane with the worker id
        # instead of the coordinator's label.
        TRACER.source = stats.worker_id
    events = EventLog(spool.events_path, source=stats.worker_id)
    events.emit("worker_start", pid=os.getpid())
    breaker = CircuitBreaker()
    idle_wait = pipes.wait_idle if pipes is not None else time.sleep
    idle_since: Optional[float] = None
    was_idle = False
    warned_missing = False
    while True:
        # The marker names the campaign it closes, so a worker that starts
        # after the coordinator marked its campaign complete exits at once,
        # and a leftover marker of an earlier campaign is ignored.
        if spool.is_complete():
            stats.exit_reason = "complete"
            break
        if max_tasks is not None and stats.tasks_completed >= max_tasks:
            stats.exit_reason = "max_tasks"
            break
        task_deadline = (
            cell_timeout if cell_timeout is not None else spool.campaign_cell_timeout()
        )
        claimed = spool.claim_next()
        if claimed is None:
            # Nothing claimable: rescue tasks from dead peers, then wait.
            # A missing spool root may just mean the coordinator has not
            # initialised it yet — keep polling, but tell the operator once
            # so a typo'd path is a visible warning, not a silent hang.
            if not warned_missing and not spool.root.is_dir():
                warned_missing = True
                logger.warning(
                    "%s: spool %s does not exist (yet?); polling until it appears",
                    stats.worker_id,
                    spool.root,
                )
            if lease_timeout is None:
                spool.refresh_lease_timeout()
            for task_id, outcome in spool.reclaim_expired().items():
                if outcome == "quarantined":
                    logger.error(
                        "%s: task %s quarantined as poison after repeated failed claims",
                        stats.worker_id,
                        task_id,
                    )
                    continue
                logger.warning(
                    "%s: reclaimed expired lease on %s", stats.worker_id, task_id
                )
                events.emit("task_reclaimed", task=task_id)
            now = time.time()
            if idle_since is None:
                idle_since = now
            elif idle_timeout is not None and now - idle_since >= idle_timeout:
                stats.exit_reason = "idle_timeout"
                break
            if not was_idle:
                was_idle = True  # one event per idle stretch, not per poll
                events.emit("worker_idle")
            idle_wait(poll_interval * (0.75 + 0.5 * jitter.random()))
            continue
        idle_since = None
        was_idle = False
        events.emit("task_claimed", task=claimed.task_id, cells=len(claimed.task.cells))
        try:
            execute_task(
                claimed,
                spool,
                registry,
                stats=stats,
                events=events,
                retry_policy=retry_policy,
                breaker=breaker,
                cell_timeout=task_deadline,
            )
        except CellTimeout as exc:
            # The watchdog killed a runaway cell: no shard was written.
            # Requeue with a `timeout` ledger event so repeated offenders
            # cross the quarantine threshold, where the coordinator records
            # the failed CellTimeout cell.
            stats.timeouts += 1
            outcome = spool.requeue(
                claimed, event="timeout", index=exc.index, error_class="CellTimeout"
            )
            logger.error(
                "%s: killed runaway cell (task %s, index %s) after %gs; %s",
                stats.worker_id,
                claimed.task_id,
                exc.index,
                exc.seconds,
                outcome or "claim already gone",
            )
            events.emit(
                "cell_timeout",
                task=claimed.task_id,
                index=exc.index,
                seconds=exc.seconds,
            )
        except OSError as exc:
            # Spool I/O failed even after retries (disk full, NFS blip…).
            # Give the claim back — a peer, or this worker later,
            # re-executes it; the quarantine ledger caps how often.
            outcome = spool.requeue(claimed)
            logger.error(
                "%s: task %s failed on spool I/O (%s); %s",
                stats.worker_id,
                claimed.task_id,
                exc,
                outcome or "claim already gone",
            )
            time.sleep(poll_interval)
        if pipes is not None:
            pipes.note_landed()
    events.emit(
        "worker_exit",
        reason=stats.exit_reason,
        tasks_completed=stats.tasks_completed,
        runs_executed=stats.runs_executed,
        failures=stats.failures,
        timeouts=stats.timeouts,
        busy_s=round(stats.busy_s, 3),
        **({"events_dropped": events.dropped} if events.dropped else {}),
    )
    return stats
