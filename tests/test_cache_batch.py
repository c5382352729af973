"""Atomic publication: ``CacheIndex.put_many``, ``atomic_write_texts`` and
which files pay a write barrier.

``put_many`` must write the same bytes the one-object-per-barrier ``put``
wrote, honour ``cache.put`` fault rules per object, fsync every object
before renaming any, and leave no temp file behind when a step fails.
Durable spool files (task files, result shards, ``campaign.json``, the
completion marker) are fsynced before their rename too; the advisory
snapshots (``progress.json``, worker heartbeats) are renamed without one.
"""

import json
import os
from pathlib import Path

import pytest

from repro.distributed import CacheIndex, Spool, SpoolTask
from repro.experiments import RunRecord
from repro.observability import (
    CampaignProgress,
    ProgressTracker,
    atomic_write_texts,
    read_progress,
    write_progress,
)
from repro.resilience import FaultPlan, FaultRule, armed


def _records(count):
    return [
        (
            f"{seed:02x}" + "f" * 62,
            RunRecord(scenario="s", params={"a": seed}, seed=seed, metrics={"m": seed / 3}),
        )
        for seed in range(count)
    ]


def _reference_put(root: Path, key: str, record: RunRecord) -> None:
    """The per-object put this batch path replaced: mkdir, write, fsync, rename."""
    path = root / "objects" / key[:2] / f"{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    with temp.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps(record.to_json_dict(), sort_keys=True))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, path)


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


class TestPutMany:
    def test_objects_match_the_per_object_put(self, tmp_path):
        pairs = _records(12)
        for key, record in pairs:
            _reference_put(tmp_path / "reference", key, record)
        cache = CacheIndex(tmp_path / "batched")
        assert cache.put_many(pairs) == 12
        reference = CacheIndex(tmp_path / "reference")
        assert cache.keys() == reference.keys() == sorted(key for key, _ in pairs)
        for key, _ in pairs:
            assert cache.path_for(key).read_bytes() == reference.path_for(key).read_bytes()
        assert _leftover_temps(tmp_path) == []

    def test_corrupt_rule_garbles_exactly_the_kth_object(self, tmp_path):
        pairs = _records(6)
        cache = CacheIndex(tmp_path / "cache")
        plan = FaultPlan([FaultRule(point="cache.put", kind="corrupt", at=4, times=1)])
        with armed(plan):
            assert cache.put_many(pairs) == 6
        assert [entry["ctx"]["key"] for entry in plan.log] == [pairs[3][0]]
        reader = CacheIndex(tmp_path / "cache")
        for index, (key, record) in enumerate(pairs):
            if index == 3:
                assert len(cache.path_for(key).read_bytes()) == 10
                assert reader.get(key) is None
            else:
                assert reader.get(key) == record
        assert reader.repairs == 1

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
        assert cache.put_many([(None, ok_a), (key_c, failed)]) == 0
        assert not (tmp_path / "cache" / "objects" / key_c[:2]).exists()

    def test_every_object_is_fsynced_before_any_rename(self, tmp_path, monkeypatch):
        calls = _record_barriers(monkeypatch)
        cache = CacheIndex(tmp_path / "cache")
        pairs = _records(8)
        assert cache.put_many(pairs) == 8
        monkeypatch.undo()
        kinds = [kind for kind, _ in calls]
        assert kinds == ["fsync"] * 8 + ["replace"] * 8
        fsynced = [path for kind, path in calls if kind == "fsync"]
        renamed = [path for kind, path in calls if kind == "replace"]
        assert fsynced == renamed
        assert [path.parent.parent.parent for path in renamed] == [tmp_path / "cache"] * 8

    def test_failed_fsync_leaves_no_temp_file_and_no_object(self, tmp_path, monkeypatch, caplog):
        pairs = _records(6)
        cache = CacheIndex(tmp_path / "cache")
        real_fsync = os.fsync
        fsyncs = []

        def failing_fsync(fd):
            fsyncs.append(fd)
            if len(fsyncs) == 3:
                raise OSError(28, "No space left on device")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with caplog.at_level("WARNING", logger="repro.distributed.cache"):
            assert cache.put_many(pairs) == 0
            assert cache.put_many(pairs) == 0  # degraded: a silent no-op
        monkeypatch.undo()
        assert len(fsyncs) == 3
        assert _leftover_temps(tmp_path) == []
        assert all(not cache.path_for(key).exists() for key, _ in pairs)
        assert cache.degraded and cache.puts == 0
        assert len([r for r in caplog.records if "continuing uncached" in r.message]) == 1


class TestAtomicWriteTexts:
    def test_a_path_named_twice_keeps_its_last_content(self, tmp_path):
        target = tmp_path / "a.json"
        atomic_write_texts([(target, "first"), (tmp_path / "b.json", "b"), (target, "last")])
        assert target.read_text() == "last"
        assert (tmp_path / "b.json").read_text() == "b"
        assert _leftover_temps(tmp_path) == []

    def test_failed_rename_unlinks_the_unrenamed_temps(self, tmp_path, monkeypatch):
        real_replace = os.replace
        renames = []

        def failing_replace(src, dst):
            renames.append(dst)
            if len(renames) == 2:
                raise OSError(5, "Input/output error")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        items = [(tmp_path / f"{name}.json", name) for name in "abc"]
        with pytest.raises(OSError):
            atomic_write_texts(items)
        monkeypatch.undo()
        assert (tmp_path / "a.json").read_text() == "a"  # renamed before the failure
        assert not (tmp_path / "b.json").exists()
        assert not (tmp_path / "c.json").exists()
        assert _leftover_temps(tmp_path) == []

    def test_missing_parent_raises_and_leaves_nothing(self, tmp_path):
        items = [(tmp_path / "a.json", "a"), (tmp_path / "missing" / "b.json", "b")]
        with pytest.raises(FileNotFoundError):
            atomic_write_texts(items)
        assert not (tmp_path / "a.json").exists()
        assert _leftover_temps(tmp_path) == []


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

    def test_worker_heartbeat_is_renamed_without_fsync(self, spool, monkeypatch):
        calls = _record_barriers(monkeypatch)
        assert spool.write_worker_heartbeat("w1", {"tasks_completed": 2})
        monkeypatch.undo()
        assert [kind for kind, _ in calls] == ["replace"]
        assert spool.worker_heartbeats()["w1"]["tasks_completed"] == 2
        assert _leftover_temps(spool.root) == []

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

    def test_failed_heartbeat_rename_returns_false(self, spool, monkeypatch):
        _failing_replace(monkeypatch)
        assert spool.write_worker_heartbeat("w1", {"tasks_completed": 0}) is False
        monkeypatch.undo()
        assert spool.worker_heartbeats() == {}
        assert _leftover_temps(spool.root) == []
