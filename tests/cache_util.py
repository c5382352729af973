"""Test helpers that read and damage one entry of a result cache on disk.

Every other cache test goes through :class:`repro.distributed.CacheIndex`;
this is the one place that knows the on-disk format: ``keys/<key>`` is a
hard link to a segment in ``segments/``, which holds the line
``<key>\\t<record JSON>\\n``.
"""

import os
from pathlib import Path


def _locate(root, key: str):
    """``(link path, payload offset, payload length)`` of ``key``'s entry."""
    link = Path(root) / "keys" / key
    data = link.read_bytes()
    prefix = key.encode("ascii") + b"\t"
    start = 0 if data.startswith(prefix) else data.index(b"\n" + prefix) + 1
    end = data.index(b"\n", start)
    return link, start + len(prefix), end - start - len(prefix)


def segment_of(root, key: str) -> str:
    """The name of the segment that holds ``key``'s entry."""
    inode = os.stat(Path(root) / "keys" / key).st_ino
    (name,) = [path.name for path in (Path(root) / "segments").iterdir() if path.stat().st_ino == inode]
    return name


def raw_entry(root, key: str) -> bytes:
    """The record bytes ``key``'s entry holds, as a reader would find them."""
    link, offset, length = _locate(root, key)
    return link.read_bytes()[offset : offset + length]


def garble_entry(root, key: str, payload: bytes = b"{torn") -> None:
    """Overwrite ``key``'s record bytes in place with ``payload``, padded with
    spaces to the old length, as disk damage would leave them; every other
    entry of the segment keeps its bytes."""
    link, offset, length = _locate(root, key)
    assert len(payload) <= length, "a garbled entry cannot outgrow its record"
    with link.open("r+b") as handle:
        handle.seek(offset)
        handle.write(payload.ljust(length, b" "))
