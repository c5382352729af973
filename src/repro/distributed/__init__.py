"""``repro.distributed`` — multi-host campaign execution on a shared spool.

The distributed subsystem extends the single-host campaign runner across
machines using nothing but a shared filesystem (NFS mount, bind mount,
``tmp`` directory in tests):

* :mod:`repro.distributed.spool` — the work-queue directory layout:
  pending task files claimed atomically via ``os.rename``, lease
  timestamps for dead-worker detection, result shards written atomically,
  and :func:`settle`, the one rule that decides each cell's record from a
  spool's shards and quarantine (for the coordinator, ``merge`` and
  ``fsck`` alike);
* :mod:`repro.distributed.worker` — the pull-based worker loop behind
  ``python -m repro.experiments worker <spool>``;
* :mod:`repro.distributed.coordinator` — :class:`SpoolBackend`, the
  coordinator that shards a campaign onto a spool, optionally spawns local
  workers, and merges result shards back in run-list order (preserving the
  ``jobs=1`` byte-identity guarantee);
* :mod:`repro.distributed.cache` — :class:`CacheIndex`, the
  content-addressed result cache shared across campaigns and hosts, keyed
  by ``sha256(scenario source + canonical params + seed)``;
* :mod:`repro.distributed.scheduler` — the failure bounds of the pull
  queue: per-cell wall-clock deadlines (:class:`CellTimeout`) and the
  offline :func:`fsck_spool` audit/repair.
"""

from repro.distributed.cache import CacheIndex
from repro.distributed.coordinator import SpoolBackend, merge_spool_results
from repro.distributed.scheduler import CellTimeout, cell_deadline, fsck_spool
from repro.distributed.spool import (
    DEFAULT_MAX_TASK_ATTEMPTS,
    ClaimedTask,
    Spool,
    SpoolDispatchError,
    SpoolTask,
    TornShardError,
    settle,
)
from repro.distributed.worker import WorkerStats, run_worker

__all__ = [
    "CacheIndex",
    "CellTimeout",
    "ClaimedTask",
    "DEFAULT_MAX_TASK_ATTEMPTS",
    "Spool",
    "SpoolBackend",
    "SpoolDispatchError",
    "SpoolTask",
    "TornShardError",
    "WorkerStats",
    "cell_deadline",
    "fsck_spool",
    "merge_spool_results",
    "run_worker",
    "settle",
]
