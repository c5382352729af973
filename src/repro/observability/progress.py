"""Machine-readable campaign progress snapshots (``progress.json``).

A progress file is one JSON object describing a campaign in flight: how
many cells are pending / running / done / failed, how many were served
from the result store or the content-addressed cache, current throughput
and an ETA, and — for spool campaigns — each worker's state, counts and
age, folded from the spool's ``events.jsonl``.  The runner maintains
``<store>.progress.json`` next to its result store; the spool coordinator
maintains ``progress.json`` inside the spool root.  Either is what
``python -m repro.experiments status`` polls.  :func:`campaign_paths`
names both, and the campaign's other sidecars: a spool's event log and
its trace directory.

This module is also the canonical home of the atomic publication helper
(:func:`atomic_write_text`) that the spool layer, the result cache and
the progress tracker use.  Every publication writes a temp file and
renames it into place, so a reader never sees a torn file.  *Durable*
files are also fsynced before their rename: cache segments, spool task
files, result shards, ``campaign.json`` and the completion marker.
``progress.json`` is *advisory*: renamed without an fsync.  It never
feeds back into scheduling or results, a crash that loses one only
loses a view the next snapshot rebuilds, and :func:`read_progress`
treats a missing or unparsable file as absent — so it is not worth a
disk barrier each.

The tracker also throttles rewrites so per-cell bookkeeping stays cheap
even for thousand-cell campaigns.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Union

from repro.observability.trace import TRACER

PROGRESS_VERSION = 1


class CampaignPaths:
    """One campaign's sidecars: inside a spool directory, or beside a store
    (``<store>.progress.json``, ...).  Each is built when asked for, so a
    caller that knows its ``root`` is a store pays for no ``stat``.  Only
    a spool has an event log."""

    __slots__ = ("root", "spool")

    def __init__(self, root: Path, spool: bool = False):
        self.root = root
        self.spool = spool

    def _sidecar(self, name: str) -> Path:
        return self.root / name if self.spool else Path(f"{self.root}.{name}")

    @property
    def progress(self) -> Path:
        """The snapshot ``status`` reads."""
        return self._sidecar("progress.json")

    @property
    def events(self) -> Path:
        """The log ``tail`` reads (a spool's; check :attr:`spool` first)."""
        return self.root / "events.jsonl"

    @property
    def trace(self) -> Path:
        """The directory of ``trace-<pid>.jsonl`` span files."""
        return self.root if self.spool else self._sidecar("trace")


def campaign_paths(target: Union[str, os.PathLike]) -> CampaignPaths:
    """The sidecars of the campaign ``target`` names.

    An existing directory is a spool (or a trace directory); anything else
    is a result store.  A spool's ``progress.json`` or ``events.jsonl``,
    and a store's ``<store>.progress.json``, name their own campaign.
    """
    path = Path(target)
    if path.name in ("progress.json", "events.jsonl"):
        return CampaignPaths(path.parent, spool=True)
    if path.is_dir():
        return CampaignPaths(path, spool=True)
    if path.name.endswith(".progress.json"):
        return CampaignPaths(path.with_name(path.name[: -len(".progress.json")]))
    return CampaignPaths(path)


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
    ``workers`` maps worker id to its state, counts and age (spool
    campaigns only; see :func:`~repro.observability.events.worker_states`).
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
    #: Absolute directory the campaign traced into (``run --trace``), or
    #: ``None`` when untraced: ``report`` finds a ``--spool`` or
    #: ``--trace-dir`` campaign's trace through it (a new optional key; the
    #: document stays version 1).
    trace_dir: Optional[str] = None

    def to_json_dict(self) -> Dict[str, Any]:
        return {"version": PROGRESS_VERSION, **vars(self)}

    @classmethod
    def from_json_dict(cls, payload: Dict[str, Any]) -> "CampaignProgress":
        """The document's fields; keys this version does not know (an older
        or newer document's) are ignored."""
        names = {item.name for item in fields(cls)}
        return cls(**{key: value for key, value in payload.items() if key in names})


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

    Thread-safe: any thread of the owning process may record completions
    while the coordinator's ingest loop does.  Calls
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
        self._complete = False
        self._started_at = 0.0
        self._fresh_done = 0  # executed this session; drives throughput/ETA
        self._started_mono = 0.0
        self._last_write = 0.0
        self._ewma_rps: Optional[float] = None
        self._last_fresh_mono = 0.0  # previous fresh completion (monotonic)
        self._trace_dir: Optional[str] = None

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
            if TRACER.enabled and TRACER.directory is not None:
                self._trace_dir = str(TRACER.directory.resolve())
            self._write_locked(force=True)

    def record_record(self, ok: bool = True) -> None:
        """Account one executed cell (cache hits are counted by :meth:`begin`)."""
        with self._lock:
            if ok:
                self._done += 1
            else:
                self._failed += 1
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

    def finish(
        self,
        complete: bool = True,
        records: Optional[Iterable[Any]] = None,
    ) -> None:
        """Close the campaign and force a final snapshot.

        ``records`` are the campaign's settled records (``None`` entries
        are skipped): ``done``/``failed`` are recounted from their ``ok``
        rather than kept from the live tallies, which counted a quarantined
        cell as failed before a late shard healed it.
        """
        with self._lock:
            self._complete = bool(complete)
            self._running = 0
            if records is not None:
                oks = [record.ok for record in records if record is not None]
                self._done = sum(oks)
                self._failed = len(oks) - self._done
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
            trace_dir=self._trace_dir,
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
