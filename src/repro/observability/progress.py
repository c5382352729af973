"""Machine-readable campaign progress snapshots (``progress.json``).

A progress file is one JSON object describing a campaign in flight: how
many cells are pending / running / done / failed, how many were served
from the result store or the content-addressed cache, current throughput
and an ETA, and — for spool campaigns — each worker's last heartbeat.
The runner maintains ``<store>.progress.json`` next to its result store;
the spool coordinator maintains ``progress.json`` inside the spool root.
Either is what ``python -m repro.experiments status`` (and ROADMAP item
1's control plane) polls.

This module is also the canonical home of the atomic publication helper
(:func:`atomic_write_text`) that the spool layer, the result cache and the
CLI use.  Every publication writes a temp file and renames it into place,
so a reader never sees a torn file.  *Durable* files are also fsynced
before their rename: cache segments, spool task files, result shards,
``campaign.json``, the completion marker and the ``--profile`` sidecar.
*Advisory* files are renamed without an fsync: ``progress.json`` and the
spool's worker heartbeats.  They never feed back into scheduling or
results, a crash that loses one only loses a view the next snapshot (or
``events.jsonl``) rebuilds, and their readers (:func:`read_progress`,
``Spool.worker_heartbeats``) treat a missing or unparsable file as absent
— so they are not worth a disk barrier each.

The tracker also throttles rewrites so per-cell bookkeeping stays cheap
even for thousand-cell campaigns.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Union

PROGRESS_VERSION = 1

#: EWMA smoothing factor for throughput.  Each fresh completion folds its
#: instantaneous rate (1 / inter-completion gap) into the average with this
#: weight; ~0.2 means the smoothed rate reflects roughly the last ~10
#: completions, damping the early-campaign jitter of the raw rate.
EWMA_ALPHA = 0.2


def atomic_write_text(path: Path, content: str, durable: bool = True) -> None:
    """Atomically publish one file: write a temp file beside ``path``,
    fsync it, then rename it into place.

    The bytes are therefore on disk before the rename, so a reader never
    observes a torn file.  The rename itself (the directory entry) is not
    fsynced: a crash can lose the file's new version but never expose a
    partial one.  ``durable=False`` skips the fsync, for advisory files: a
    live reader still never sees a torn file, but after a crash a
    just-renamed file may be lost or empty.

    When the write, fsync or rename raises, the temp file is removed
    before the error propagates.  A missing parent directory is not
    created.
    """
    path = Path(path)
    temp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        with temp.open("w", encoding="utf-8") as handle:
            handle.write(content)
        if durable:
            # On POSIX an fsync through a read-only descriptor flushes the file.
            fd = os.open(temp, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        os.replace(temp, path)
    except BaseException:
        try:
            temp.unlink()
        except OSError:
            pass
        raise


@dataclass
class CampaignProgress:
    """One snapshot of a campaign's cell accounting.

    Cell counts partition the campaign: ``pending + running + done +
    failed == total``.  ``done`` counts settled-ok cells from *any* source
    — fresh execution, store reuse (``reused``) or cache hits (``cached``)
    — so a campaign is finished exactly when ``done + failed == total``.
    ``workers`` maps worker id to its latest heartbeat summary (spool
    campaigns only; see :meth:`Spool.worker_heartbeats`).
    """

    scenario: str
    total: int
    pending: int = 0
    running: int = 0
    done: int = 0
    failed: int = 0
    cached: int = 0
    reused: int = 0
    backend: str = "inline"
    complete: bool = False
    started_at: float = 0.0
    updated_at: float = 0.0
    throughput_rps: Optional[float] = None
    eta_s: Optional[float] = None
    #: EWMA-smoothed companions to the raw rate/ETA above (new optional
    #: fields; the document stays version 1 — readers that predate them
    #: simply ignore the extra keys).
    throughput_ewma_rps: Optional[float] = None
    eta_smoothed_s: Optional[float] = None
    workers: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Per-execution-path cell counts ("vector"/"scalar"/"store"/"cache"/
    #: backend name -> count); populated when the campaign closes.
    backend_cells: Dict[str, int] = field(default_factory=dict)
    #: Elastic-scheduling counters (speculated/superseded/splits_observed/
    #: ...), maintained by the spool coordinator.  Optional — the document
    #: stays version 1 and readers that predate it ignore the key.
    scheduler: Dict[str, int] = field(default_factory=dict)

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "version": PROGRESS_VERSION,
            "scenario": self.scenario,
            "total": self.total,
            "pending": self.pending,
            "running": self.running,
            "done": self.done,
            "failed": self.failed,
            "cached": self.cached,
            "reused": self.reused,
            "backend": self.backend,
            "complete": self.complete,
            "started_at": self.started_at,
            "updated_at": self.updated_at,
            "throughput_rps": self.throughput_rps,
            "eta_s": self.eta_s,
            "throughput_ewma_rps": self.throughput_ewma_rps,
            "eta_smoothed_s": self.eta_smoothed_s,
            "workers": self.workers,
            "backend_cells": self.backend_cells,
            **({"scheduler": self.scheduler} if self.scheduler else {}),
        }

    @classmethod
    def from_json_dict(cls, payload: Dict[str, Any]) -> "CampaignProgress":
        return cls(
            scenario=str(payload.get("scenario", "")),
            total=int(payload.get("total", 0)),
            pending=int(payload.get("pending", 0)),
            running=int(payload.get("running", 0)),
            done=int(payload.get("done", 0)),
            failed=int(payload.get("failed", 0)),
            cached=int(payload.get("cached", 0)),
            reused=int(payload.get("reused", 0)),
            backend=str(payload.get("backend", "inline")),
            complete=bool(payload.get("complete", False)),
            started_at=float(payload.get("started_at", 0.0)),
            updated_at=float(payload.get("updated_at", 0.0)),
            throughput_rps=payload.get("throughput_rps"),
            eta_s=payload.get("eta_s"),
            throughput_ewma_rps=payload.get("throughput_ewma_rps"),
            eta_smoothed_s=payload.get("eta_smoothed_s"),
            workers=dict(payload.get("workers") or {}),
            backend_cells={
                str(name): int(count)
                for name, count in (payload.get("backend_cells") or {}).items()
            },
            scheduler={
                str(name): int(count)
                for name, count in (payload.get("scheduler") or {}).items()
            },
        )


def write_progress(path: Union[str, os.PathLike], progress: CampaignProgress) -> None:
    """Atomically publish one progress snapshot (advisory: rename, no fsync)."""
    atomic_write_text(
        Path(path),
        json.dumps(progress.to_json_dict(), indent=2, sort_keys=True) + "\n",
        durable=False,
    )


def read_progress(path: Union[str, os.PathLike]) -> Optional[CampaignProgress]:
    """The latest snapshot, or ``None`` if absent / unreadable / malformed."""
    try:
        with Path(path).open("r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict):
        return None
    try:
        return CampaignProgress.from_json_dict(payload)
    except (TypeError, ValueError):
        return None


class ProgressTracker:
    """Maintains one campaign's ``progress.json`` with throttled rewrites.

    Thread-safe: the multiprocessing backend's collector thread and the
    coordinator's ingest loop may record completions concurrently.  Calls
    between :meth:`begin` and :meth:`finish` rewrite the file at most once
    per ``min_interval`` seconds (forced on begin/finish), so per-cell
    accounting costs a lock and an integer bump, not a file write.
    """

    def __init__(
        self,
        path: Union[str, os.PathLike],
        scenario: str,
        backend: str = "inline",
        min_interval: float = 0.2,
    ):
        self.path = Path(path)
        self.scenario = scenario
        self.backend = backend
        self.min_interval = float(min_interval)
        self._lock = threading.Lock()
        self._total = 0
        self._done = 0
        self._failed = 0
        self._cached = 0
        self._reused = 0
        self._running = 0
        self._workers: Dict[str, Dict[str, Any]] = {}
        self._backend_cells: Dict[str, int] = {}
        self._scheduler: Dict[str, int] = {}
        self._complete = False
        self._started_at = 0.0
        self._fresh_done = 0  # executed this session; drives throughput/ETA
        self._started_mono = 0.0
        self._last_write = 0.0
        self._ewma_rps: Optional[float] = None
        self._last_fresh_mono = 0.0  # previous fresh completion (monotonic)

    # ---------------------------------------------------------------- updates
    def begin(self, total: int, reused: int = 0, cached: int = 0) -> None:
        """Open the campaign: ``reused``/``cached`` cells are already done."""
        with self._lock:
            self._total = int(total)
            self._reused = int(reused)
            self._cached = int(cached)
            self._done = int(reused) + int(cached)
            self._started_at = time.time()
            self._started_mono = time.monotonic()
            self._last_fresh_mono = self._started_mono
            self._write_locked(force=True)

    def record_record(self, ok: bool = True, cached: bool = False) -> None:
        """Account one settled cell (optionally served from the cache)."""
        with self._lock:
            if ok:
                self._done += 1
            else:
                self._failed += 1
            if cached:
                self._cached += 1
            else:
                self._fresh_done += 1
                now = time.monotonic()
                gap = now - self._last_fresh_mono
                self._last_fresh_mono = now
                if gap > 0:
                    instant_rps = 1.0 / gap
                    if self._ewma_rps is None:
                        self._ewma_rps = instant_rps
                    else:
                        self._ewma_rps += EWMA_ALPHA * (instant_rps - self._ewma_rps)
            self._write_locked()

    def set_running(self, running: int) -> None:
        with self._lock:
            self._running = max(0, int(running))
            self._write_locked()

    def set_workers(self, workers: Dict[str, Dict[str, Any]]) -> None:
        with self._lock:
            self._workers = dict(workers)
            self._write_locked()

    def set_scheduler(self, counters: Dict[str, int]) -> None:
        """Publish the elastic scheduler's counters (spool campaigns)."""
        with self._lock:
            self._scheduler = {
                str(name): int(count) for name, count in counters.items()
            }
            self._write_locked()

    def finish(
        self, complete: bool = True, backend_cells: Optional[Dict[str, int]] = None
    ) -> None:
        """Close the campaign and force a final snapshot.

        ``backend_cells`` records which execution path settled each cell
        (vector/scalar/store/cache/...); the runner passes its final
        provenance counts so ``report`` and ``status`` can surface them.
        """
        with self._lock:
            self._complete = bool(complete)
            self._running = 0
            if backend_cells is not None:
                self._backend_cells = dict(backend_cells)
            self._write_locked(force=True)

    # --------------------------------------------------------------- snapshot
    def snapshot(self) -> CampaignProgress:
        with self._lock:
            return self._snapshot_locked()

    def _snapshot_locked(self) -> CampaignProgress:
        settled = self._done + self._failed
        remaining = max(0, self._total - settled)
        throughput: Optional[float] = None
        eta: Optional[float] = None
        elapsed = time.monotonic() - self._started_mono if self._started_mono else 0.0
        smoothed: Optional[float] = None
        eta_smoothed: Optional[float] = None
        if self._fresh_done and elapsed > 0:
            throughput = self._fresh_done / elapsed
            smoothed = self._ewma_rps
            if not self._complete:
                eta = remaining / throughput
                if smoothed:
                    eta_smoothed = remaining / smoothed
        return CampaignProgress(
            scenario=self.scenario,
            total=self._total,
            pending=max(0, remaining - self._running),
            running=min(self._running, remaining),
            done=self._done,
            failed=self._failed,
            cached=self._cached,
            reused=self._reused,
            backend=self.backend,
            complete=self._complete,
            started_at=self._started_at,
            updated_at=time.time(),
            throughput_rps=throughput,
            eta_s=eta,
            throughput_ewma_rps=smoothed,
            eta_smoothed_s=eta_smoothed,
            workers=dict(self._workers),
            backend_cells=dict(self._backend_cells),
            scheduler=dict(self._scheduler),
        )

    def _write_locked(self, force: bool = False) -> None:
        now = time.monotonic()
        if not force and now - self._last_write < self.min_interval:
            return
        try:
            # Unlike the event log (worker-side, must never conjure a spool
            # into existence), the tracker runs on the owning side — creating
            # the parent directory here is creating our own output location.
            self.path.parent.mkdir(parents=True, exist_ok=True)
            write_progress(self.path, self._snapshot_locked())
        except OSError:
            return  # advisory only: never fail a campaign over progress I/O
        self._last_write = now
