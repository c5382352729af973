"""Failure bounds for spool campaigns: cell deadlines and spool fsck.

The spool is a plain pull queue: workers claim pending tasks in id order,
and a stalled or dead worker is bounded by its claim lease (any process
may reclaim an expired lease).  This module holds the two pieces that
turn the remaining failure shapes into typed records instead of hangs:

* :func:`cell_deadline` — the worker-side watchdog enforcing per-cell
  wall-clock deadlines (``--cell-timeout``): the runaway cell is killed
  with :class:`CellTimeout` and the task fed to the quarantine ledger;
* :func:`fsck_spool` — offline audit/repair of a spool directory using
  the same recovery paths the coordinator applies online.

Neither decides what a cell computes, so a campaign's merged store stays
byte-identical to the ``jobs=1`` run.

Fault point: ``worker.deadline`` fires when a cell deadline is armed (a
``stall`` directive disables the watchdog for that cell).
"""

from __future__ import annotations

import signal
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.distributed.spool import SpoolDispatchError, TornShardError, settle
from repro.resilience.faults import inject

__all__ = [
    "CellTimeout",
    "cell_deadline",
    "fsck_spool",
]


class CellTimeout(BaseException):
    """A cell exceeded its wall-clock deadline and was killed.

    Deliberately a ``BaseException``: ``execute_run`` captures ``Exception``
    into failed records (a run failure must not kill a campaign), but a
    deadline kill must *abort the task* — no shard is written, the claim is
    requeued with a ``timeout`` ledger event, and repeated offenders land
    in quarantine where the coordinator records the failed ``CellTimeout``
    cell.  Letting it become an in-shard record would also break the
    byte-identity invariant (a ``jobs=1`` run has no deadline).
    """

    def __init__(self, seconds: float, task: Optional[str] = None, index: Optional[int] = None):
        detail = f"cell exceeded its {seconds:g}s wall-clock deadline"
        if task is not None:
            detail += f" (task {task}, index {index})"
        super().__init__(detail)
        self.seconds = seconds
        self.task = task
        self.index = index


@contextmanager
def cell_deadline(
    seconds: Optional[float],
    task: Optional[str] = None,
    index: Optional[int] = None,
) -> Iterator[None]:
    """Kill the enclosed cell with :class:`CellTimeout` after ``seconds``.

    On the main thread (where worker processes execute cells) the watchdog
    is a ``SIGALRM`` interval timer, which interrupts even blocking C calls
    like ``time.sleep`` — the deadline fires within the configured budget,
    not at the next Python bytecode.  Off the main thread (library use)
    enforcement is unavailable and the context is a no-op; callers that
    need hard deadlines run cells on the main thread, as the spool worker
    does.  ``None`` or non-positive seconds disables the watchdog, as does
    a ``stall`` directive from the ``worker.deadline`` fault point.
    """
    if seconds is None or seconds <= 0:
        yield
        return
    rule = inject("worker.deadline", task=task, index=index, seconds=seconds)
    if rule is not None and rule.kind == "stall":
        yield  # injected watchdog failure: the runaway cell runs unbounded
        return
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _fire(signum: int, frame: Any) -> None:
        raise CellTimeout(seconds, task=task, index=index)

    previous = signal.signal(signal.SIGALRM, _fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# fsck
# ---------------------------------------------------------------------------


def fsck_spool(spool: Any, repair: bool = False) -> Dict[str, Any]:
    """Audit a spool for the damage the coordinator knows how to heal.

    Checks: torn result shards, orphaned leases (claims whose valid shard
    already exists), expired leases, and quarantine/ledger inconsistencies
    (a quarantined task whose every cell
    :func:`~repro.distributed.spool.settle` gives a shard record, or one
    quarantined with fewer recorded failed attempts than the campaign
    threshold).  With ``repair`` the same recovery paths the coordinator
    uses online are applied — torn shards dropped, settled and expired
    claims retired through the normal reclaim/quarantine ledger, and
    completed quarantine entries lifted — so an operator can heal a spool
    without restarting its campaign.

    Returns ``{"issues": [...], "repaired": [...], "ok": bool}``; each
    issue is ``{"kind", "target", "detail"}``.
    """
    issues: List[Dict[str, str]] = []
    repaired: List[str] = []

    def issue(kind: str, target: str, detail: str) -> None:
        issues.append({"kind": kind, "target": target, "detail": detail})

    if not spool.exists():
        issue("layout", str(spool.root), "not a campaign spool (tasks/ or results/ missing)")
        return {"issues": issues, "repaired": repaired, "ok": False}

    spool.refresh_lease_timeout()
    now = time.time()

    for task_id in spool.completed_task_ids():
        if not spool.verify_shard(task_id):
            issue("torn_shard", task_id, "result shard fails sha256 verification")
            if repair:
                try:
                    (spool.results_dir / f"{task_id}.jsonl").unlink()
                    repaired.append(f"dropped torn shard {task_id}")
                except OSError:
                    pass

    for task_id in spool.claimed_task_ids():
        claim_path = spool.claimed_dir / f"{task_id}.json"
        if spool.verify_shard(task_id):
            issue("orphaned_lease", task_id, "claim still held but a valid shard exists")
            if repair:
                try:
                    claim_path.unlink()
                    repaired.append(f"released settled claim {task_id}")
                except OSError:
                    pass
            continue
        try:
            age = now - claim_path.stat().st_mtime
        except OSError:
            continue
        if age >= spool.lease_timeout:
            issue(
                "expired_lease",
                task_id,
                f"lease {age:.1f}s old (timeout {spool.lease_timeout:g}s)",
            )
    if repair and any(entry["kind"] == "expired_lease" for entry in issues):
        for task_id in spool.reclaim_expired(now=now):
            repaired.append(f"requeued expired claim {task_id}")
        for task_id in spool.quarantined_task_ids():
            if any(
                entry["kind"] == "expired_lease" and entry["target"] == task_id
                for entry in issues
            ):
                repaired.append(f"quarantined poison task {task_id}")

    quarantined = spool.quarantined_task_ids()
    try:
        settled = settle(spool) if quarantined else {}
    except (SpoolDispatchError, TornShardError):
        settled = {}  # a torn shard (reported above) or a mixed-campaign spool
    for task_id in quarantined:
        failures = spool.quarantine_failures(task_id)
        if failures and all(settled.get(index) != record for index, record in failures):
            issue(
                "quarantine_completed",
                task_id,
                "every cell of the quarantined task settles to a shard record "
                "(work actually finished)",
            )
            if repair:
                try:
                    (spool.quarantine_dir / f"{task_id}.json").unlink()
                    repaired.append(f"lifted quarantine on completed task {task_id}")
                except OSError:
                    pass
            continue
        recorded = spool.reclaim_count(task_id)
        if recorded + 1 < spool.max_task_attempts:
            issue(
                "quarantine_ledger",
                task_id,
                f"quarantined with only {recorded} recorded failed attempt(s) "
                f"(threshold {spool.max_task_attempts})",
            )

    return {"issues": issues, "repaired": repaired, "ok": not issues or bool(repair)}
