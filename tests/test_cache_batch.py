"""Atomic publication: ``CacheIndex.put_many``, ``atomic_write_text`` and
which files pay a write barrier.

``put_many`` must publish a batch as one segment behind exactly one fsync
and one rename, honour ``cache.put`` fault rules per record, and leave no
temp file behind when a step fails.  A lookup must read at most the one
segment that holds its key, and an open index must see other processes'
puts and clears on its next lookup.
Durable spool files (task files, result shards, ``campaign.json``, the
completion marker) are fsynced before their rename too; the advisory
``progress.json`` snapshot is renamed without one.
"""

import json
import multiprocessing
import os
from pathlib import Path

import pytest

import repro.distributed.cache as cache_module
from cache_util import garble_entry, raw_entry, segment_of
from repro.distributed import CacheIndex, Spool, SpoolTask
from repro.experiments import RunRecord
from repro.experiments.cli import main as cli_main
from repro.observability import (
    CampaignProgress,
    ProgressTracker,
    atomic_write_text,
    read_progress,
    write_progress,
)
from repro.resilience import FaultPlan, FaultRule, armed


def _records(count, start=0):
    return [
        (
            f"{seed:02x}" + "f" * 62,
            RunRecord(scenario="s", params={"a": seed}, seed=seed, metrics={"m": seed / 3}),
        )
        for seed in range(start, start + count)
    ]


def _leftover_temps(root: Path):
    return sorted(root.rglob(".*.tmp"))


def _record_barriers(monkeypatch):
    """Record every ``os.fsync`` (by path) and ``os.replace`` (by source)."""
    calls = []
    fd_paths = {}
    real_open, real_fsync, real_replace = os.open, os.fsync, os.replace

    def recording_open(path, flags, *args, **kwargs):
        fd = real_open(path, flags, *args, **kwargs)
        fd_paths[fd] = Path(path)
        return fd

    def recording_fsync(fd):
        calls.append(("fsync", fd_paths.get(fd)))
        real_fsync(fd)

    def recording_replace(src, dst, *args, **kwargs):
        calls.append(("replace", Path(src)))
        real_replace(src, dst, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(os, "replace", recording_replace)
    return calls


def _failing_replace(monkeypatch):
    def failing_replace(src, dst, *args, **kwargs):
        raise OSError(5, "Input/output error")

    monkeypatch.setattr(os, "replace", failing_replace)


def _in_children(*targets):
    """Run each target in a forked child, all released at once; exit codes."""
    context = multiprocessing.get_context("fork")
    barrier = context.Barrier(len(targets))

    def child(target):
        barrier.wait(timeout=30)
        os._exit(0 if target() else 1)

    children = [context.Process(target=child, args=(target,)) for target in targets]
    for process in children:
        process.start()
    for process in children:
        process.join(timeout=60)
    return [process.exitcode for process in children]


class TestPutMany:
    def test_records_round_trip_byte_for_byte(self, tmp_path):
        pairs = _records(12)
        cache = CacheIndex(tmp_path / "cache")
        assert cache.put_many(pairs) == 12
        reader = CacheIndex(tmp_path / "cache")
        assert cache.keys() == reader.keys() == sorted(key for key, _ in pairs)
        for key, record in pairs:
            served = reader.get(key)
            assert served == record
            assert json.dumps(served.to_json_dict(), sort_keys=True) == json.dumps(
                record.to_json_dict(), sort_keys=True
            )
        assert reader.hits == 12 and reader.misses == 0
        assert _leftover_temps(tmp_path) == []

    def test_corrupt_rule_garbles_exactly_the_kth_object(self, tmp_path):
        pairs = _records(6)
        cache = CacheIndex(tmp_path / "cache")
        plan = FaultPlan([FaultRule(point="cache.put", kind="corrupt", at=4, times=1)])
        with armed(plan):
            assert cache.put_many(pairs) == 6
        assert [entry["ctx"]["key"] for entry in plan.log] == [pairs[3][0]]
        root = tmp_path / "cache"
        assert len(raw_entry(root, pairs[3][0])) == 10  # keep_bytes' head only
        assert all(
            raw_entry(root, key) == json.dumps(record.to_json_dict(), sort_keys=True).encode()
            for key, record in pairs[:3] + pairs[4:]
        )
        segments = {path: path.read_bytes() for path in (root / "segments").iterdir()}
        reader = CacheIndex(tmp_path / "cache")
        for index, (key, record) in enumerate(pairs):
            if index == 3:
                assert reader.get(key) is None
            else:
                assert reader.get(key) == record
        assert reader.repairs == 1
        # The repair removed the key's link and left every segment as it was.
        assert {path: path.read_bytes() for path in (root / "segments").iterdir()} == segments
        # The repair is on disk: a fresh reader neither serves nor re-counts it.
        fresh = CacheIndex(tmp_path / "cache")
        assert pairs[3][0] not in fresh.keys()
        assert fresh.get(pairs[3][0]) is None
        assert fresh.repairs == 0
        assert [fresh.get(key) for key, _ in pairs[4:]] == [record for _, record in pairs[4:]]
        assert len(fresh) == 5

    def test_io_error_publishes_nothing_from_the_batch(self, tmp_path, caplog):
        pairs = _records(5)
        cache = CacheIndex(tmp_path / "cache")
        plan = FaultPlan([FaultRule(point="cache.put", kind="io_error", at=3, times=1)])
        with caplog.at_level("WARNING", logger="repro.distributed.cache"):
            with armed(plan):
                assert cache.put_many(pairs) == 0
        assert cache.degraded
        assert cache.puts == 0
        assert len(CacheIndex(tmp_path / "cache")) == 0
        assert _leftover_temps(tmp_path) == []
        assert len([r for r in caplog.records if "continuing uncached" in r.message]) == 1

    def test_failed_and_keyless_records_are_skipped_and_counted_per_object(self, tmp_path):
        (key_a, ok_a), (key_b, ok_b), (key_c, _) = _records(3)
        failed = RunRecord(scenario="s", params={}, seed=9, status="failed", error="x")
        cache = CacheIndex(tmp_path / "cache")
        batch = [(key_a, ok_a), (None, ok_b), (key_c, failed), (key_b, ok_b)]
        assert cache.put_many(batch) == 2
        assert cache.puts == 2
        assert cache.session_stats()["puts"] == 2
        assert cache.keys() == sorted([key_a, key_b])
        written = cache.stats()["bytes"]
        assert cache.put_many([(None, ok_a), (key_c, failed)]) == 0
        assert CacheIndex(tmp_path / "cache").stats()["bytes"] == written  # nothing written
        assert key_c not in CacheIndex(tmp_path / "cache").keys()

    def test_one_fsync_before_one_rename_per_put_many(self, tmp_path, monkeypatch):
        calls = _record_barriers(monkeypatch)
        cache = CacheIndex(tmp_path / "cache")
        assert cache.put_many(_records(8)) == 8
        assert cache.put_many(_records(3, start=8)) == 3
        monkeypatch.undo()
        assert [kind for kind, _ in calls] == ["fsync", "replace"] * 2
        for (_, fsynced), (_, renamed) in zip(calls[::2], calls[1::2]):
            assert fsynced == renamed
            assert renamed.name.startswith(".")
            assert tmp_path / "cache" in renamed.parents
        assert len(CacheIndex(tmp_path / "cache")) == 11
        assert _leftover_temps(tmp_path) == []

    def test_failed_fsync_leaves_no_temp_file_and_no_object(self, tmp_path, monkeypatch, caplog):
        pairs = _records(6)
        cache = CacheIndex(tmp_path / "cache")
        fsyncs = []

        def failing_fsync(fd):
            fsyncs.append(fd)
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with caplog.at_level("WARNING", logger="repro.distributed.cache"):
            assert cache.put_many(pairs) == 0
            assert cache.put_many(pairs) == 0  # degraded: a silent no-op
        monkeypatch.undo()
        assert len(fsyncs) == 1
        assert _leftover_temps(tmp_path) == []
        reader = CacheIndex(tmp_path / "cache")
        assert len(reader) == 0
        assert all(key not in reader.keys() for key, _ in pairs)
        assert cache.degraded and cache.puts == 0
        assert len([r for r in caplog.records if "continuing uncached" in r.message]) == 1


class TestSegments:
    def test_reader_finds_another_process_batch_on_its_next_miss(self, tmp_path):
        root = tmp_path / "cache"
        pairs = _records(4)
        reader = CacheIndex(root)
        assert reader.get(pairs[0][0]) is None  # opened before the put
        assert _in_children(lambda: CacheIndex(root).put_many(pairs) == 4) == [0]
        assert [reader.get(key) for key, _ in pairs] == [record for _, record in pairs]
        assert reader.hits == 4 and reader.misses == 1

    def test_a_lookup_opens_one_link_and_a_run_of_hits_reads_its_segment_once(
        self, tmp_path, monkeypatch
    ):
        root = tmp_path / "cache"
        writer = CacheIndex(root)
        batches = [_records(3, start=3 * batch) for batch in range(3)]
        for batch in batches:
            writer.put_many(batch)
        assert len({segment_of(root, key) for batch in batches for key, _ in batch}) == 3
        opened, reads = [], []
        real_open, real_pread = os.open, os.pread

        def recording_open(path, flags, *args, **kwargs):
            opened.append(Path(path).name)
            return real_open(path, flags, *args, **kwargs)

        def recording_pread(fd, length, offset):
            reads.append(length)
            return real_pread(fd, length, offset)

        monkeypatch.setattr(os, "open", recording_open)
        monkeypatch.setattr(os, "pread", recording_pread)
        reader = CacheIndex(root)
        for batch in batches:
            for key, record in batch:
                assert reader.get(key) == record
                assert opened.pop() == key and opened == []
        assert len(reads) == 3  # one read per segment, not per hit
        assert reader.get("0" * 64) is None  # a miss tries its own link only
        assert opened == ["0" * 64] and len(reads) == 3
        assert "1" * 64 not in reader.keys() and batches[0][0][0] in reader.keys()
        assert len(reader) == 9
        assert reader.get(batches[0][0][0]) == batches[0][0][1]  # back to the first
        assert len(opened) == 2 and len(reads) == 4


    def test_64_hits_on_one_segment_read_it_once(self, tmp_path, monkeypatch):
        root = tmp_path / "cache"
        pairs = _records(64)
        CacheIndex(root).put_many(pairs)
        reads = []
        real_pread = os.pread

        def recording_pread(fd, length, offset):
            reads.append(length)
            return real_pread(fd, length, offset)

        monkeypatch.setattr(os, "pread", recording_pread)
        reader = CacheIndex(root)
        assert [reader.get(key) for key, _ in pairs] == [record for _, record in pairs]
        assert reader.hits == 64
        assert len(reads) == 1

    def test_a_corrupt_entry_inside_an_indexed_segment_is_repaired(self, tmp_path):
        root = tmp_path / "cache"
        pairs = _records(5)
        CacheIndex(root).put_many(pairs)
        reader = CacheIndex(root)
        assert reader.get(pairs[0][0]) == pairs[0][1]  # the segment is indexed
        key = pairs[2][0]
        garble_entry(root, key, b"{to\nrn")  # breaks the line in two
        assert reader.get(key) is None
        assert reader.repairs == 1 and key not in reader.keys()
        neighbours = [pair for pair in pairs if pair[0] != key]
        assert [reader.get(k) for k, _ in neighbours] == [r for _, r in neighbours]
        assert reader.repairs == 1 and reader.hits == 1 + len(neighbours)

    def test_a_segment_without_a_whole_line_for_its_key_is_a_repair(self, tmp_path):
        root = tmp_path / "cache"
        pairs = _records(3)
        CacheIndex(root).put_many(pairs)
        segment = root / "segments" / segment_of(root, pairs[0][0])
        data = segment.read_bytes()
        with segment.open("r+b") as handle:  # lose the last line's newline
            handle.truncate(len(data) - 1)
        reader = CacheIndex(root)
        assert reader.get(pairs[2][0]) is None and reader.repairs == 1
        assert [reader.get(k) for k, _ in pairs[:2]] == [r for _, r in pairs[:2]]

    def test_a_remembered_segment_never_stands_in_for_another(self, tmp_path, monkeypatch):
        # Every segment looks alike to fstat, as a reused inode would, and
        # each holds keys the other lacks: the old index never serves them.
        root = tmp_path / "cache"
        pairs = _records(4)
        CacheIndex(root).put_many(pairs[:2])
        CacheIndex(root).put_many(pairs[2:])
        same = os.stat(tmp_path)
        monkeypatch.setattr(os, "fstat", lambda fd: same)
        reads = []
        real_pread = os.pread

        def recording_pread(fd, length, offset):
            reads.append(length)
            return real_pread(fd, length, offset)

        monkeypatch.setattr(os, "pread", recording_pread)
        reader = CacheIndex(root)
        order = [pairs[0], pairs[2], pairs[1], pairs[3], pairs[0]]
        assert [reader.get(key) for key, _ in order] == [record for _, record in order]
        assert len(reads) == 5  # each switch of segment reads it afresh
        assert reader.repairs == 0 and reader.misses == 0

    def test_an_open_index_sees_another_process_put_many_and_clear(self, tmp_path):
        root = tmp_path / "cache"
        first, later = _records(3), _records(3, start=3)
        reader = CacheIndex(root)
        assert reader.put_many(first) == 3
        assert reader.get(first[0][0]) == first[0][1]  # the index is open
        assert _in_children(lambda: CacheIndex(root).put_many(later) == 3) == [0]
        assert [reader.get(key) for key, _ in later] == [record for _, record in later]
        # A re-put moves a key to another segment; the index follows it.
        relabelled = [(key, RunRecord(scenario="t", params={}, seed=0)) for key, _ in first]
        assert _in_children(lambda: CacheIndex(root).put_many(relabelled) == 3) == [0]
        assert [reader.get(key) for key, _ in first] == [record for _, record in relabelled]
        assert _in_children(lambda: CacheIndex(root).clear() == 6) == [0]
        assert [reader.get(key) for key, _ in first + later] == [None] * 6
        assert len(reader) == 0 and reader.repairs == 0

    def test_stray_temp_files_are_ignored(self, tmp_path):
        root = tmp_path / "cache"
        (key, record), (stray_key, stray_record) = _records(2)
        cache = CacheIndex(root)
        assert cache.put(key, record)
        published = CacheIndex(root).stats()["bytes"]
        line = f"{stray_key}\t{json.dumps(stray_record.to_json_dict(), sort_keys=True)}\n"
        for name in (".unpublished.jsonl", ".0001-2a-ffff.jsonl.42.tmp"):
            (root / "segments" / name).write_text(line, encoding="utf-8")
        # A link left in its temp name by a writer that died before the rename.
        os.link(root / "segments" / ".unpublished.jsonl", root / "keys" / f".{stray_key}.tmp")
        reader = CacheIndex(root)
        assert reader.get(stray_key) is None
        assert stray_key not in reader.keys()
        assert reader.keys() == [key]
        assert reader.stats()["entries"] == 1
        assert reader.stats()["bytes"] == published
        assert reader.get(key) == record

    def test_processes_putting_overlapping_keys_at_once_all_succeed(self, tmp_path):
        # Four concurrent writers, each batch overlapping its neighbours'.
        root = tmp_path / "cache"
        pairs = _records(14)
        exit_codes = _in_children(
            *(
                lambda start=start: CacheIndex(root).put_many(pairs[start : start + 8]) == 8
                for start in (0, 2, 4, 6)
            )
        )
        assert exit_codes == [0, 0, 0, 0]
        reader = CacheIndex(root)
        assert reader.keys() == sorted(key for key, _ in pairs)
        assert [reader.get(key) for key, _ in pairs] == [record for _, record in pairs]
        assert reader.repairs == 0 and not reader.degraded
        assert _leftover_temps(tmp_path) == []

    @pytest.mark.parametrize("after_links", [1, 2])
    def test_a_peer_re_put_between_a_writer_key_links_loses_nothing(
        self, tmp_path, monkeypatch, after_links
    ):
        # A peer puts the same two keys right after the writer has linked
        # one (or both) of them, replacing those links while the writer
        # still holds its segment.
        root = tmp_path / "cache"
        pairs = _records(2)
        real_link = os.link
        key_links = []
        peer = []

        def link(src, dst, *args, **kwargs):
            real_link(src, dst, *args, **kwargs)
            dst = Path(dst)
            if dst.parent.name != "keys" or dst.name[0] == ".":
                return
            key_links.append(dst.name)
            if len(key_links) == after_links and not peer:
                peer.append(None)  # the peer's own links must not re-enter
                peer[0] = CacheIndex(root).put_many(pairs)

        monkeypatch.setattr(os, "link", link)
        writer = CacheIndex(root)
        assert writer.put_many(pairs) == 2
        assert peer == [2] and not writer.degraded
        monkeypatch.undo()
        reader = CacheIndex(root)
        assert [reader.get(key) for key, _ in pairs] == [record for _, record in pairs]
        assert reader.repairs == 0
        # Every segment left is the target of some key link: none is dead.
        segments = os.listdir(root / "segments")
        assert sorted(segments) == sorted({segment_of(root, key) for key, _ in pairs})
        assert _leftover_temps(tmp_path) == []

    def test_repaired_entry_is_healed_by_a_re_put(self, tmp_path):
        root = tmp_path / "cache"
        pairs = _records(3)
        CacheIndex(root).put_many(pairs)
        key, record = pairs[1]
        garble_entry(root, key)
        reader = CacheIndex(root)
        assert reader.get(key) is None and reader.repairs == 1
        assert reader.put(key, record)
        assert reader.get(key) == record
        fresh = CacheIndex(root)
        assert [fresh.get(k) for k, _ in pairs] == [r for _, r in pairs]
        assert fresh.repairs == 0

    def test_a_segment_is_deleted_with_its_last_link(self, tmp_path):
        root = tmp_path / "cache"
        pairs = _records(3)
        cache = CacheIndex(root)
        cache.put_many(pairs[:2])
        cache.put_many(pairs[2:])
        first, second = (root / "segments" / segment_of(root, pairs[i][0]) for i in (0, 2))
        # A re-put of one of two keys leaves the segment its other key needs.
        cache.put(*pairs[0])
        assert first.exists()
        # A repair of the other removes its last link, and the segment.
        garble_entry(root, pairs[1][0])
        assert cache.get(pairs[1][0]) is None and cache.repairs == 1
        assert not first.exists()
        # A re-put of a segment's only key removes it at once.
        cache.put(*pairs[2])
        assert not second.exists()
        assert len(os.listdir(root / "segments")) == 2
        assert cache.get(pairs[0][0]) == pairs[0][1]
        assert cache.get(pairs[1][0]) is None
        assert cache.get(pairs[2][0]) == pairs[2][1]

    @pytest.mark.parametrize(
        "old, new",
        [
            # A byte that is not UTF-8 at all, inside the scenario name.
            (b'"scenario": "s"', b'"scenario": "\xf3"'),
            # Valid UTF-8 that still parses, as metric "\u00e9" instead of "m".
            (b'"m": ', b'"\xc3\xa9":'),
        ],
        ids=["not_utf8", "utf8_that_parses"],
    )
    def test_non_ascii_bytes_in_a_record_are_a_repair(self, tmp_path, old, new):
        root = tmp_path / "cache"
        (key, record), (other, other_record) = _records(2)
        CacheIndex(root).put_many([(key, record), (other, other_record)])
        raw = raw_entry(root, key)
        # The cache writes ASCII only, so any other byte is damage, even
        # where the damaged bytes still parse as a record.
        damaged = raw.replace(old, new)
        assert damaged != raw and len(damaged) == len(raw)
        garble_entry(root, key, damaged)
        reader = CacheIndex(root)
        assert reader.get(key) is None
        assert reader.repairs == 1 and reader.hits == 0
        assert key not in reader.keys()
        assert reader.get(other) == other_record

    def test_a_re_put_replaces_an_unread_corrupt_entry(self, tmp_path):
        root = tmp_path / "cache"
        (key, record), = _records(1)
        cache = CacheIndex(root)
        plan = FaultPlan([FaultRule(point="cache.put", kind="corrupt", times=1)])
        with armed(plan):
            assert cache.put(key, record)
        assert cache.put_many([(key, record), (key, record)]) == 1
        fresh = CacheIndex(root)
        assert fresh.get(key) == record and fresh.repairs == 0
        assert fresh.keys() == [key]
        assert _leftover_temps(tmp_path) == []
        assert os.listdir(root / "keys") == [key]
        # The corrupt entry's segment lost its last link and is gone.
        segments = os.listdir(root / "segments")
        assert len(segments) == 1
        assert fresh.stats()["bytes"] == (root / "segments" / segments[0]).stat().st_size


class TestCacheCli:
    def test_stats_counts_distinct_keys_and_segment_bytes(self, tmp_path, capsys):
        root = tmp_path / "cache"
        pairs = _records(4)
        cache = CacheIndex(root)
        assert cache.put_many(pairs[:3]) == 3
        assert cache.put_many(pairs[2:]) == 2  # one key published twice
        segment_bytes = sum(path.stat().st_size for path in (root / "segments").glob("*.jsonl"))
        assert cli_main(["cache", "stats", str(root)]) == 0
        assert f"4 cached record(s), {segment_bytes} bytes" in capsys.readouterr().out

    def test_clear_removes_segments_and_the_legacy_object_tree(self, tmp_path, capsys):
        root = tmp_path / "cache"
        pairs = _records(5)
        cache = CacheIndex(root)
        assert cache.put_many(pairs[:3]) == 3
        assert cache.put_many(pairs[2:]) == 3
        legacy_key, legacy_record = _records(1, start=9)[0]
        legacy = root / "objects" / legacy_key[:2] / f"{legacy_key}.json"
        legacy.parent.mkdir(parents=True)
        legacy.write_text(json.dumps(legacy_record.to_json_dict(), sort_keys=True))
        assert CacheIndex(root).get(legacy_key) is None  # never read
        assert cli_main(["cache", "clear", str(root)]) == 0
        assert "removed 5 cached record(s)" in capsys.readouterr().out
        assert not (root / "objects").exists()
        assert cli_main(["cache", "stats", str(root)]) == 0
        assert "0 cached record(s), 0 bytes" in capsys.readouterr().out
        assert all(CacheIndex(root).get(key) is None for key, _ in pairs)


class TestAtomicWriteText:
    def test_temp_file_is_fsynced_before_its_rename(self, tmp_path, monkeypatch):
        target = tmp_path / "a.json"
        calls = _record_barriers(monkeypatch)
        atomic_write_text(target, "a")
        monkeypatch.undo()
        assert [kind for kind, _ in calls] == ["fsync", "replace"]
        (_, fsynced), (_, renamed) = calls
        assert fsynced == renamed and renamed.name.startswith(".")
        assert target.read_text() == "a"
        assert _leftover_temps(tmp_path) == []

    def test_advisory_write_is_renamed_without_fsync(self, tmp_path, monkeypatch):
        target = tmp_path / "a.json"
        calls = _record_barriers(monkeypatch)
        atomic_write_text(target, "a", durable=False)
        monkeypatch.undo()
        assert [kind for kind, _ in calls] == ["replace"]
        assert target.read_text() == "a"

    def test_failed_rename_unlinks_the_temp(self, tmp_path, monkeypatch):
        target = tmp_path / "a.json"
        target.write_text("old")
        _failing_replace(monkeypatch)
        with pytest.raises(OSError):
            atomic_write_text(target, "new")
        monkeypatch.undo()
        assert target.read_text() == "old"
        assert _leftover_temps(tmp_path) == []

    def test_missing_parent_raises_and_leaves_nothing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            atomic_write_text(tmp_path / "missing" / "b.json", "b")
        assert list(tmp_path.iterdir()) == []


@pytest.fixture
def spool(tmp_path):
    spool = Spool(tmp_path / "spool")
    spool.initialise(metadata={"campaign_id": "c1"})
    return spool


_DURABLE_WRITES = {
    "publish_task": lambda spool: spool.publish_task(
        SpoolTask(task_id="task-00000", scenario="s", cells=(({}, 1, 0),))
    ),
    "write_result_shard": lambda spool: spool.write_result_shard(
        "task-00000", [(0, RunRecord(scenario="s", params={}, seed=1, metrics={"m": 1.0}))]
    ),
    "write_campaign_metadata": lambda spool: spool.write_campaign_metadata(
        {"campaign_id": "c2"}
    ),
    "mark_complete": lambda spool: spool.mark_complete(),
}


class TestDurableWrites:
    @pytest.mark.parametrize("name", sorted(_DURABLE_WRITES))
    def test_temp_file_is_fsynced_before_its_rename(self, spool, monkeypatch, name):
        calls = _record_barriers(monkeypatch)
        _DURABLE_WRITES[name](spool)
        monkeypatch.undo()
        assert [kind for kind, _ in calls] == ["fsync", "replace"]
        (_, fsynced), (_, renamed) = calls
        assert fsynced == renamed
        assert renamed.name.startswith(".") and renamed.suffix == ".tmp"
        assert _leftover_temps(spool.root) == []


class TestAdvisoryWrites:
    def test_progress_is_renamed_without_fsync(self, tmp_path, monkeypatch):
        path = tmp_path / "progress.json"
        calls = _record_barriers(monkeypatch)
        write_progress(path, CampaignProgress(scenario="s", total=3, done=3, complete=True))
        monkeypatch.undo()
        assert [kind for kind, _ in calls] == ["replace"]
        progress = read_progress(path)
        assert progress.complete and progress.done == progress.total == 3
        assert _leftover_temps(tmp_path) == []

    def test_failed_progress_rename_leaves_no_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "progress.json"
        _failing_replace(monkeypatch)
        with pytest.raises(OSError):
            write_progress(path, CampaignProgress(scenario="s", total=1))
        monkeypatch.undo()
        assert not path.exists()
        assert _leftover_temps(tmp_path) == []

    def test_tracker_swallows_a_failed_rename(self, tmp_path, monkeypatch):
        path = tmp_path / "progress.json"
        tracker = ProgressTracker(path, scenario="s")
        _failing_replace(monkeypatch)
        tracker.begin(2)
        tracker.record_record(ok=True)
        tracker.finish()
        monkeypatch.undo()
        assert not path.exists()
        assert _leftover_temps(tmp_path) == []
        assert tracker.snapshot().done == 1
