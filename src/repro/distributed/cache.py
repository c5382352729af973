"""Content-addressed result cache shared across campaigns and hosts.

A :class:`CacheIndex` is a directory of cached :class:`RunRecord` objects
keyed by ``sha256(scenario source + canonical params + seed)`` (see
:func:`repro.experiments.spec.content_cache_key`).  Because the key hashes
the scenario's *source* rather than its name:

* editing one scenario's factory invalidates exactly that scenario's
  entries — every other scenario's completed runs stay warm;
* variants sharing a factory share cache entries cell-by-cell;
* renaming a scenario or moving a store keeps its cache hits.

Records live in immutable *segments*, ``segments/<unique>.jsonl``, one
line per record: the key, a tab, then the record's JSON.
:meth:`CacheIndex.put_many` writes exactly one segment per batch: a
``.``-prefixed temp file, one fsync, then one rename.  A segment's bytes
are on disk before its name appears, and the rename is not fsynced.

Each record is then published by its own *link*, ``keys/<key>``: a hard
link to its segment.  A link adds a name, not a file, so it costs no
inode, no data and no fsync; it is created only after its segment's
bytes are on disk, so a crash can lose a record (or a batch) but never
expose a torn one.  Segment names are unique per writer, so concurrent
writers on a shared filesystem never share a segment; two writers of the
same key write identical records anyway, since runs are deterministic,
and the later link wins.  On a filesystem without hard links the first
put fails with an ``OSError`` and degrades the index.  Only successful
records are cached — failures always re-run.

Every lookup goes to the disk and touches one key: a miss is one failed
``open`` of its link, a hit one ``open`` of its link, which is its
segment.  An index remembers the bytes of the last segment it read, so a
run of hits in one batch reads that segment once; it holds nothing else
in memory, a fresh process pays nothing for the size of the cache, and an
index already open sees other processes' puts and ``cache clear`` on its
next lookup.  Records from the per-record ``objects/`` layout this module
used to write are never read; :meth:`CacheIndex.clear` removes them.

Segments are never rewritten: a repair removes only the key's link.  A
repair that overlaps a re-put of the same key can remove the fresh link;
the cell then re-executes once more, and no reader gets a wrong record.
A segment whose last key link a re-put replaces or a repair removes is
deleted: its link count (``st_nlink``) is then 1, its ``segments/`` name.
Concurrent replacements of the same segment's links can each see another
link still there and leave it behind; ``cache clear`` removes it.

Effectiveness bookkeeping: every index counts its hits / misses / puts /
repairs in-process (:meth:`CacheIndex.session_stats`), and
:meth:`CacheIndex.flush_stats` appends the session's counts to a
``stats.jsonl`` ledger inside the cache root, so ``cache stats`` can
report lifetime effectiveness across campaigns and hosts, not just the
current process.
"""

from __future__ import annotations

import json
import logging
import os
import shutil
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.experiments.runner import RunRecord
from repro.observability.progress import atomic_write_text
from repro.resilience.faults import inject

logger = logging.getLogger(__name__)

SEGMENT_SUFFIX = ".jsonl"


def _check_key(key: str) -> None:
    """Keys name files and sit in ASCII lines: letters and digits only."""
    if not (key.isascii() and key.isalnum()):
        raise ValueError(f"invalid cache key: {key!r}")


class CacheIndex:
    """Filesystem-backed content-addressed store of successful run records.

    Resilience semantics: a *corrupt* entry (garbled or non-ASCII bytes,
    wrong shape, no whole line for its key) is repaired on read — its link
    is removed so the re-executed run can re-publish a good one; the
    segment itself is never rewritten — and an *unreachable* cache
    (permission error, dead mount: any OSError other than a plain missing
    entry) degrades the whole index: one warning, then every get/put is a
    silent no-op.  A campaign never fails because its cache did; it just
    runs uncached.
    """

    def __init__(self, root: Union[str, os.PathLike]):
        self.root = Path(root)
        # Session counters; see flush_stats() for the cross-process ledger.
        self.hits = 0
        self.misses = 0
        self.puts = 0
        #: Corrupt entries removed on read this session.
        self.repairs = 0
        self._flushed = (0, 0, 0, 0)
        #: Set after the first infrastructure-level OSError; see degraded.
        self._degraded = False
        #: The last segment read: its identity and its bytes after a "\n".
        self._segment: Tuple[Optional[tuple], bytes] = (None, b"")

    @property
    def degraded(self) -> bool:
        """True once the cache has been abandoned for this session."""
        return self._degraded

    def _degrade(self, exc: OSError) -> None:
        if self._degraded:
            return
        self._degraded = True
        logger.warning(
            "result cache %s is unreachable (%s); continuing uncached",
            self.root,
            exc,
        )

    @property
    def keys_dir(self) -> Path:
        return self.root / "keys"

    @property
    def segments_dir(self) -> Path:
        return self.root / "segments"

    @property
    def stats_path(self) -> Path:
        return self.root / "stats.jsonl"

    @staticmethod
    def _published(directory: Path) -> List[str]:
        """Names in ``directory`` that are published (temp names start with
        ``.``); a missing directory holds none."""
        try:
            names = os.listdir(directory)
        except FileNotFoundError:
            return []
        return [name for name in names if name[0] != "."]

    def _read_entry(self, key: str) -> Optional[bytes]:
        """The record JSON in ``key``'s line of the segment its link names;
        ``None`` when ``key`` has no link.  Raises ``ValueError`` for a
        corrupt entry and ``OSError`` when the cache is unreachable."""
        try:
            fd = os.open(self.keys_dir / key, os.O_RDONLY)
        except FileNotFoundError:
            return None
        prefix = b"\n" + key.encode("ascii") + b"\t"
        try:
            stat = os.fstat(fd)
            identity = (stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns)
            data = self._segment[1] if self._segment[0] == identity else b""
            start = data.find(prefix)
            if start < 0:
                # Not the remembered segment, or a reused inode that looks
                # like it: read the segment afresh.
                data = b"\n" + os.pread(fd, stat.st_size, 0)
                self._segment = (identity, data)
                start = data.find(prefix)
        finally:
            os.close(fd)
        end = data.find(b"\n", start + 1)
        if start < 0 or end < 0:
            raise ValueError("its segment holds no whole line for it")
        payload = data[start + len(prefix) : end]
        # The cache writes ASCII only, so any other byte is damage.
        if not payload.isascii():
            raise ValueError("non-ASCII bytes")
        return payload

    # ------------------------------------------------------------------ access
    def get(self, key: Optional[str]) -> Optional[RunRecord]:
        """The cached record for ``key``, or ``None`` on miss.

        Corrupt entries are *repaired on read*: the key's link is removed
        (so the re-executed run re-publishes a good one) and the lookup
        counts as a miss.  Infrastructure failures degrade the whole index
        instead — see the class docstring.
        """
        if key is None or self._degraded:
            return None
        _check_key(key)
        record = None
        try:
            inject("cache.get", key=key)
            payload = self._read_entry(key)
            if payload is not None:
                record = RunRecord.from_json_dict(json.loads(payload))
        except (ValueError, KeyError, TypeError) as exc:
            self.repairs += 1
            logger.warning(
                "corrupt cache entry %s removed (repair-on-read: %s); the cell re-executes",
                key,
                exc,
            )
            link = self.keys_dir / key
            try:
                segment = link.stat().st_ino
                link.unlink()
                self._delete_dead_segments({segment})
            except OSError:
                pass
        except OSError as exc:
            self._degrade(exc)
            return None
        if record is not None and record.ok:
            self.hits += 1
            return record
        self.misses += 1
        return None

    def put(self, key: Optional[str], record: RunRecord) -> bool:
        """Cache one successful record; failures and key-less runs are skipped."""
        return self.put_many([(key, record)]) == 1

    def put_many(self, pairs: Iterable[Tuple[Optional[str], RunRecord]]) -> int:
        """Cache a batch of records as one segment; returns how many keys.

        Failed and key-less records are skipped; a key named twice keeps
        its last record.  The rest are written to one new segment behind
        one fsync and one rename (:func:`atomic_write_text`), so a campaign
        pays one write barrier rather than one per cell; then each key's
        link is created, replacing an older link to the same key.  The
        ``cache.put`` injection point fires once per record, in order,
        before anything is written: an ``io_error`` there publishes
        nothing from the batch and degrades the index, like any other
        ``OSError`` on the way; links made before such an error stay, and
        each points at bytes already on disk.
        """
        if self._degraded:
            return 0
        written: Dict[str, str] = {}
        try:
            for key, record in pairs:
                if key is None or not record.ok:
                    continue
                _check_key(key)
                rule = inject("cache.put", key=key)
                payload = json.dumps(record.to_json_dict(), sort_keys=True)
                if rule is not None and rule.kind == "corrupt":
                    # Keep only the head of the record (simulates a cache
                    # host losing the tail of the write).
                    payload = payload[: int(rule.args.get("keep_bytes", 10))]
                written[key] = payload
            if not written:
                return 0
            name = f"{time.time_ns():016x}-{os.getpid():x}-{os.urandom(4).hex()}{SEGMENT_SUFFIX}"
            segment = self.segments_dir / name
            self.segments_dir.mkdir(parents=True, exist_ok=True)
            self.keys_dir.mkdir(exist_ok=True)
            atomic_write_text(
                segment, "".join(f"{key}\t{payload}\n" for key, payload in written.items())
            )
            replaced: Set[int] = set()
            for key in written:
                link = self.keys_dir / key
                try:
                    os.link(segment, link)
                except FileExistsError:
                    temp = self.keys_dir / f".{key}.{name}"
                    os.link(segment, temp)
                    try:
                        replaced.add(link.stat().st_ino)
                    except FileNotFoundError:
                        pass  # removed meanwhile (a repair, a clear)
                    os.replace(temp, link)
            self._delete_dead_segments(replaced)
        except OSError as exc:
            self._degrade(exc)
            return 0
        self.puts += len(written)
        return len(written)

    def _delete_dead_segments(self, inodes: Set[int]) -> None:
        """Delete each segment among ``inodes`` that no key links to any
        more (its ``segments/`` name is its last link)."""
        if not inodes:
            return
        with os.scandir(self.segments_dir) as entries:
            for entry in entries:
                if entry.inode() not in inodes:
                    continue
                try:
                    if entry.stat(follow_symlinks=False).st_nlink == 1:
                        os.unlink(entry.path)
                except FileNotFoundError:
                    pass

    # ------------------------------------------------------------ effectiveness
    def session_stats(self) -> Dict[str, int]:
        """Hit/miss/put/repair counts recorded by *this* index instance."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "repairs": self.repairs,
        }

    def flush_stats(self) -> bool:
        """Append the not-yet-flushed session counts to the stats ledger.

        The ledger (``stats.jsonl``) is append-only, one JSON line per
        flush, shared by every process using the cache root — the same
        whole-line-append pattern as the event log.  Flushing is
        best-effort and idempotent per count: each call appends only the
        delta since the previous flush.
        """
        if self._degraded:
            return False
        delta = (
            self.hits - self._flushed[0],
            self.misses - self._flushed[1],
            self.puts - self._flushed[2],
            self.repairs - self._flushed[3],
        )
        if not any(delta):
            return False
        payload = {
            "ts": round(time.time(), 6),
            "hits": delta[0],
            "misses": delta[1],
            "puts": delta[2],
        }
        if delta[3]:
            payload["repairs"] = delta[3]
        line = json.dumps(payload, sort_keys=True)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            with self.stats_path.open("a", encoding="utf-8") as handle:
                handle.write(line + "\n")
        except OSError:
            return False
        self._flushed = (self.hits, self.misses, self.puts, self.repairs)
        return True

    def lifetime_stats(self) -> Dict[str, int]:
        """Hit/miss/put/repair totals accumulated in the ledger across sessions."""
        totals = {"hits": 0, "misses": 0, "puts": 0, "repairs": 0}
        try:
            handle = self.stats_path.open("r", encoding="utf-8")
        except OSError:
            return totals
        with handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except ValueError:
                    continue
                if not isinstance(entry, dict):
                    continue
                for name in totals:
                    value = entry.get(name)
                    if isinstance(value, int):
                        totals[name] += value
        return totals

    # --------------------------------------------------------------- inventory
    def keys(self) -> List[str]:
        return sorted(self._published(self.keys_dir))

    def __len__(self) -> int:
        return len(self._published(self.keys_dir))

    def stats(self) -> Dict[str, Any]:
        """``entries`` (distinct keys), ``bytes`` (the segments' total size)
        and the ledger's ``lifetime`` totals."""
        total_bytes = 0
        for name in self._published(self.segments_dir):
            try:
                total_bytes += (self.segments_dir / name).stat().st_size
            except OSError:
                continue
        stats: Dict[str, Any] = {"entries": len(self), "bytes": total_bytes}
        stats["lifetime"] = self.lifetime_stats()
        return stats

    def clear(self) -> int:
        """Remove every link and every segment, and any legacy ``objects/``
        tree; returns the number of records removed."""
        removed = 0
        for name in self._published(self.keys_dir):
            try:
                (self.keys_dir / name).unlink()
                removed += 1
            except OSError:
                continue
        for name in self._published(self.segments_dir):
            try:
                (self.segments_dir / name).unlink()
            except OSError:
                continue
        shutil.rmtree(self.root / "objects", ignore_errors=True)
        return removed
