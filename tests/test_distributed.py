"""Tests for ``repro.distributed``: spool, workers, coordinator, cache.

Covers the distributed acceptance criteria: atomic claims under racing
workers, lease reclaim after a worker dies mid-task, coordinator merges
byte-identical to ``jobs=1`` stores, and content-addressed cache hits
surviving unrelated scenario source edits.
"""

import importlib.util
import inspect
import json
import linecache
import os
import sys
import time

import pytest

from cache_util import garble_entry
from repro.distributed import (
    CacheIndex,
    Spool,
    SpoolBackend,
    SpoolDispatchError,
    SpoolTask,
    merge_spool_results,
    run_worker,
)
from repro.distributed.spool import shard_cells
from repro.distributed.worker import execute_task
from repro.experiments import (
    ParallelCampaignRunner,
    ResultStore,
    RunRecord,
    ScenarioRegistry,
    ScenarioSpec,
    content_cache_key,
)
from repro.experiments.cli import main as cli_main
from repro.experiments.registry import load_builtin_scenarios
from repro.experiments.spec import factory_source, parameters_from_signature


def _demo_cells(seeds):
    spec = load_builtin_scenarios().get("demo/random_walk")
    run_specs = spec.runs(seeds=seeds)
    return spec, [(rs.params, rs.seed, rs.index) for rs in run_specs]


# --------------------------------------------------------------------------
# Spool mechanics
# --------------------------------------------------------------------------


class TestSpool:
    def test_task_roundtrip(self, tmp_path):
        spool = Spool(tmp_path / "spool")
        spool.initialise(metadata={"scenario": "demo/random_walk"})
        _, cells = _demo_cells([1, 2, 3])
        (task,) = shard_cells(cells, "demo/random_walk", task_size=8)
        spool.publish_task(task)
        assert spool.pending_task_ids() == ["task-00000"]
        claimed = spool.claim_next()
        assert claimed is not None
        assert claimed.task == task
        assert spool.pending_task_ids() == []
        assert spool.claimed_task_ids() == ["task-00000"]

    def test_shard_cells_orders_and_sizes(self):
        _, cells = _demo_cells([1, 2, 3, 4, 5])
        tasks = shard_cells(cells, "demo/random_walk", task_size=2)
        assert [task.task_id for task in tasks] == ["task-00000", "task-00001", "task-00002"]
        assert [len(task.cells) for task in tasks] == [2, 2, 1]
        # Lexicographic task order equals run-list order.
        indices = [index for task in tasks for (_, _, index) in task.cells]
        assert indices == sorted(indices)

    def test_two_claimants_race_one_wins(self, tmp_path):
        """Two workers racing the same task file: exactly one claim succeeds."""
        spool_a = Spool(tmp_path / "spool")
        spool_a.initialise()
        _, cells = _demo_cells([1])
        (task,) = shard_cells(cells, "demo/random_walk", task_size=1)
        spool_a.publish_task(task)
        spool_b = Spool(tmp_path / "spool")  # a second worker's view
        first = spool_a.claim("task-00000")
        second = spool_b.claim("task-00000")
        assert first is not None
        assert second is None
        assert spool_b.claim_next() is None

    def test_worker_crash_lease_reclaim(self, tmp_path):
        """A claimed task whose worker died is re-queued after its lease."""
        spool = Spool(tmp_path / "spool", lease_timeout=5.0)
        spool.initialise()
        _, cells = _demo_cells([1, 2])
        for task in shard_cells(cells, "demo/random_walk", task_size=1):
            spool.publish_task(task)
        claimed = spool.claim_next()  # the "crashed" worker claims and dies
        assert claimed is not None

        # Within the lease nothing is reclaimable.
        assert spool.reclaim_expired() == {}
        # Backdate the claim beyond the lease: any process may reclaim it.
        stale = time.time() - 60.0
        os.utime(claimed.claimed_path, (stale, stale))
        assert spool.reclaim_expired() == {claimed.task_id: "requeued"}
        assert sorted(spool.pending_task_ids()) == ["task-00000", "task-00001"]
        assert spool.claimed_task_ids() == []

    def test_reclaim_settles_claims_that_already_have_results(self, tmp_path):
        spool = Spool(tmp_path / "spool", lease_timeout=5.0)
        spool.initialise()
        _, cells = _demo_cells([1])
        (task,) = shard_cells(cells, "demo/random_walk", task_size=1)
        spool.publish_task(task)
        claimed = spool.claim_next()
        record = RunRecord(scenario="demo/random_walk", params={}, seed=1, metrics={"m": 1.0})
        spool.write_result_shard(task.task_id, [(0, record)])
        # Claim marker still present (worker died between write and release):
        # reclaim must settle it instead of re-queueing finished work.
        stale = time.time() - 60.0
        os.utime(claimed.claimed_path, (stale, stale))
        assert spool.reclaim_expired() == {}
        assert spool.pending_task_ids() == []
        assert spool.claimed_task_ids() == []
        assert spool.completed_task_ids() == [task.task_id]

    def test_initialise_purges_previous_campaign_state(self, tmp_path):
        """Reusing a spool directory must not leak the old campaign's
        tasks, claims or result shards into the new one (task ids restart
        at task-00000 per campaign)."""
        spool = Spool(tmp_path / "spool")
        spool.initialise()
        _, cells = _demo_cells([1, 2])
        for task in shard_cells(cells, "demo/random_walk", task_size=1):
            spool.publish_task(task)
        spool.claim("task-00000")
        record = RunRecord(scenario="demo/random_walk", params={}, seed=9, metrics={"m": 9.0})
        spool.write_result_shard("task-00001", [(1, record)])
        spool.mark_complete()

        spool.initialise(metadata={"scenario": "demo/random_walk"})
        assert spool.pending_task_ids() == []
        assert spool.claimed_task_ids() == []
        assert spool.completed_task_ids() == []
        assert not spool.is_complete()

    def test_spool_reuse_runs_the_new_campaign_not_the_old_one(self, tmp_path):
        backend = SpoolBackend(tmp_path / "spool", workers=1, timeout=120.0)
        first = ParallelCampaignRunner(backend=backend).run("demo/random_walk", seeds=[1, 2])
        assert [record.seed for record in first.records] == [1, 2]
        second = ParallelCampaignRunner(backend=backend).run("demo/random_walk", seeds=[5, 6])
        assert [record.seed for record in second.records] == [5, 6]
        assert second.failures == 0
        assert [r.metrics for r in second.records] != [r.metrics for r in first.records]

    def test_worker_adopts_coordinator_published_lease(self, tmp_path):
        coordinator_spool = Spool(tmp_path / "spool", lease_timeout=300.0)
        coordinator_spool.initialise()
        _, cells = _demo_cells([1])
        (task,) = shard_cells(cells, "demo/random_walk", task_size=1)
        coordinator_spool.publish_task(task)
        claimed = coordinator_spool.claim_next()

        worker_spool = Spool(tmp_path / "spool")  # default 60 s view
        assert worker_spool.refresh_lease_timeout() == 300.0
        # 120 s old: expired under the worker default, live under the
        # coordinator's published lease — must NOT be reclaimed.
        stale = time.time() - 120.0
        os.utime(claimed.claimed_path, (stale, stale))
        assert worker_spool.reclaim_expired() == {}
        # An explicit override beats the published value.
        reclaimer = Spool(tmp_path / "spool", lease_timeout=90.0)
        assert reclaimer.reclaim_expired() == {task.task_id: "requeued"}

    def test_result_shard_roundtrip_is_atomic_and_complete(self, tmp_path):
        spool = Spool(tmp_path / "spool")
        spool.initialise()
        records = [
            (3, RunRecord(scenario="s", params={"a": 1}, seed=3, metrics={"m": 0.5})),
            (4, RunRecord(scenario="s", params={"a": 1}, seed=4, status="failed", error="boom")),
        ]
        spool.write_result_shard("task-00007", records)
        loaded = spool.read_result_shard("task-00007")
        assert loaded == records
        # No temp files left behind by the atomic write.
        assert not [p for p in spool.results_dir.iterdir() if p.name.startswith(".")]


# --------------------------------------------------------------------------
# Worker loop
# --------------------------------------------------------------------------


class TestWorker:
    def _published_spool(self, tmp_path, seeds, task_size=1):
        spool = Spool(tmp_path / "spool")
        spool.initialise()
        _, cells = _demo_cells(seeds)
        for task in shard_cells(cells, "demo/random_walk", task_size=task_size):
            spool.publish_task(task)
        return spool

    def test_worker_drains_queue_and_writes_shards(self, tmp_path):
        spool = self._published_spool(tmp_path, [1, 2, 3, 4], task_size=2)
        stats = run_worker(spool.root, idle_timeout=0.01, poll_interval=0.01)
        assert stats.tasks_completed == 2
        assert stats.runs_executed == 4
        assert stats.failures == 0
        assert spool.is_drained()
        merged = merge_spool_results(spool)
        assert [record.seed for record in merged] == [1, 2, 3, 4]
        assert all(record.ok for record in merged)

    def test_worker_records_unresolvable_scenario_as_failed(self, tmp_path):
        spool = Spool(tmp_path / "spool")
        spool.initialise()
        spool.publish_task(
            SpoolTask(task_id="task-00000", scenario="no/such/scenario", cells=(({}, 1, 0),))
        )
        stats = run_worker(spool.root, idle_timeout=0.01, poll_interval=0.01)
        assert stats.failures == 1
        (merged,) = merge_spool_results(spool)
        assert not merged.ok
        assert "could not resolve scenario" in merged.error

    def test_worker_respects_max_tasks(self, tmp_path):
        spool = self._published_spool(tmp_path, [1, 2, 3])
        stats = run_worker(spool.root, max_tasks=1, poll_interval=0.01)
        assert stats.tasks_completed == 1
        assert len(spool.pending_task_ids()) == 2

    def test_stale_completion_marker_does_not_kill_prestarted_worker(self, tmp_path):
        """A marker naming a previous campaign must not make a worker exit
        while the current campaign's tasks are pending; the marker of the
        current campaign must still end it."""
        spool = Spool(tmp_path / "spool")
        spool.initialise(metadata={"campaign_id": "previous"})
        spool.mark_complete()  # previous campaign's leftover
        spool.write_campaign_metadata({"campaign_id": "current"})
        _, cells = _demo_cells([1])
        (task,) = shard_cells(cells, "demo/random_walk", task_size=1)
        spool.publish_task(task)
        assert not spool.is_complete()
        stats = run_worker(spool.root, idle_timeout=0.05, poll_interval=0.01)
        assert stats.tasks_completed == 1  # did not exit on the stale marker
        assert stats.exit_reason == "idle_timeout"

        # A worker polling the drained spool stops as soon as the current
        # campaign's marker is written.
        import threading

        finished = threading.Event()
        worker_thread = threading.Thread(
            target=lambda: (run_worker(spool.root, poll_interval=0.01), finished.set())
        )
        worker_thread.start()
        try:
            time.sleep(0.05)  # let the worker observe the marker absent
            spool.mark_complete()
            worker_thread.join(timeout=30.0)
        finally:
            spool.mark_complete()  # unstick the worker if the join timed out
            worker_thread.join(timeout=5.0)
        assert finished.is_set()

    def test_worker_started_after_the_marker_exits_complete(self, tmp_path):
        """Regression: a spawned worker that imports slower than its peer
        finishes the campaign must exit on the marker, not idle until the
        coordinator's 10 s join gives up and terminates it."""
        backend = SpoolBackend(tmp_path / "spool", workers=0, timeout=60.0, poll_interval=0.01)
        spool = Spool(tmp_path / "spool")
        import threading

        peer = threading.Thread(target=lambda: run_worker(spool.root, poll_interval=0.01))
        peer.start()
        try:
            result = ParallelCampaignRunner(backend=backend).run(
                "demo/random_walk", seeds=[1, 2]
            )
        finally:
            peer.join(timeout=30.0)
        assert result.failures == 0 and spool.is_complete()

        started = time.monotonic()
        late = run_worker(spool.root, poll_interval=0.01, idle_timeout=10.0)
        assert late.exit_reason == "complete"
        assert late.tasks_completed == 0
        assert time.monotonic() - started < 5.0


# --------------------------------------------------------------------------
# Coordinator / SpoolBackend
# --------------------------------------------------------------------------


class TestSpoolBackend:
    def test_spool_campaign_store_matches_jobs1_byte_for_byte(self, tmp_path):
        serial_path = tmp_path / "serial.jsonl"
        spool_path = tmp_path / "spool.jsonl"
        ParallelCampaignRunner(store=ResultStore(serial_path)).run(
            "demo/random_walk", seeds=range(1, 9)
        )
        backend = SpoolBackend(
            tmp_path / "spool", workers=2, task_size=2, timeout=120.0
        )
        result = ParallelCampaignRunner(store=ResultStore(spool_path), backend=backend).run(
            "demo/random_walk", seeds=range(1, 9)
        )
        assert result.backend == "spool"
        assert result.failures == 0
        assert serial_path.read_bytes() == spool_path.read_bytes()

    def test_merge_spool_results_reproduces_serial_store(self, tmp_path):
        serial_path = tmp_path / "serial.jsonl"
        ParallelCampaignRunner(store=ResultStore(serial_path)).run(
            "demo/random_walk", seeds=[1, 2, 3, 4]
        )
        spool = Spool(tmp_path / "spool")
        spool.initialise()
        _, cells = _demo_cells([1, 2, 3, 4])
        for task in shard_cells(cells, "demo/random_walk", task_size=3):
            spool.publish_task(task)
        run_worker(spool.root, idle_timeout=0.01, poll_interval=0.01)
        merged_path = tmp_path / "merged.jsonl"
        merge_spool_results(spool, ResultStore(merged_path))
        assert serial_path.read_bytes() == merged_path.read_bytes()

    def test_merge_rejects_mixed_campaign_spool(self, tmp_path):
        """Two shards claiming one run-list index with different cells is a
        reused spool with a straggler from the previous campaign — merging
        must fail loudly, not silently pick one."""
        spool = Spool(tmp_path / "spool")
        spool.initialise()
        spool.write_result_shard(
            "task-00000",
            [(0, RunRecord(scenario="old", params={}, seed=1, metrics={"m": 1.0}))],
        )
        spool.write_result_shard(
            "task-00001",
            [(0, RunRecord(scenario="new", params={}, seed=1, metrics={"m": 2.0}))],
        )
        with pytest.raises(SpoolDispatchError, match="mixes campaigns"):
            merge_spool_results(spool)

    def test_adhoc_spec_is_rejected_with_clear_error(self, tmp_path):
        def factory(seed, scale=1.0):
            return {"value": seed * scale}

        spec = ScenarioSpec(
            name="adhoc",
            factory=factory,
            parameters=parameters_from_signature(factory),
            metric_fields=("value",),
        )
        registry = ScenarioRegistry()
        registry.register(spec)
        backend = SpoolBackend(tmp_path / "spool", workers=0, timeout=1.0)
        runner = ParallelCampaignRunner(registry=registry, backend=backend)
        with pytest.raises(SpoolDispatchError, match="not resolvable by name"):
            runner.run("adhoc", seeds=[1])

    def test_all_spawned_workers_dying_fails_fast(self, tmp_path, monkeypatch):
        """Workers crashing at startup must fail the campaign with a clear
        error instead of hanging the coordinator forever."""
        import multiprocessing

        def dead_worker(self):
            process = multiprocessing.get_context("fork").Process(target=sys.exit, args=(3,))
            process.start()
            return process

        monkeypatch.setattr(SpoolBackend, "_spawn_worker", dead_worker)
        backend = SpoolBackend(tmp_path / "spool", workers=2, poll_interval=0.01)
        runner = ParallelCampaignRunner(backend=backend)
        with pytest.raises(SpoolDispatchError, match=r"exited \(return codes \[3, 3\]\)"):
            runner.run("demo/random_walk", seeds=[1, 2])

    def test_fully_resumed_campaign_still_marks_spool_complete(self, tmp_path):
        """A re-run where every cell resumes from the store never dispatches,
        but external workers waiting on the completion marker must still be
        released."""
        store_path = tmp_path / "store.jsonl"
        backend = SpoolBackend(tmp_path / "spool", workers=1, timeout=120.0)
        ParallelCampaignRunner(store=ResultStore(store_path), backend=backend).run(
            "demo/random_walk", seeds=[1, 2]
        )
        fresh_spool = tmp_path / "fresh-spool"
        resumed = ParallelCampaignRunner(
            store=ResultStore(store_path),
            backend=SpoolBackend(fresh_spool, workers=0, timeout=120.0),
        ).run("demo/random_walk", seeds=[1, 2])
        assert resumed.reused == 2 and resumed.executed == 0
        assert Spool(fresh_spool).is_complete()

    def test_coordinator_ingests_externally_produced_shards(self, tmp_path):
        """workers=0: the coordinator only publishes and collects."""
        import threading

        backend = SpoolBackend(tmp_path / "spool", workers=0, timeout=60.0, poll_interval=0.01)
        spool = Spool(tmp_path / "spool")
        worker_thread = threading.Thread(
            target=lambda: run_worker(spool.root, poll_interval=0.01)
        )
        worker_thread.start()
        try:
            result = ParallelCampaignRunner(backend=backend).run(
                "demo/random_walk", seeds=[1, 2, 3]
            )
        finally:
            worker_thread.join(timeout=30.0)
        assert not worker_thread.is_alive()
        assert result.failures == 0
        assert [record.seed for record in result.records] == [1, 2, 3]


# --------------------------------------------------------------------------
# Content-addressed cache
# --------------------------------------------------------------------------

_MODULE_TEMPLATE = '''\
"""Temp scenario module for cache-invalidation tests."""


def factory_a(seed, scale=1.0):
    return {{"value": {a_expr}}}


def factory_b(seed, scale=1.0):
    return {{"value": {b_expr}}}
'''


def _load_module(path, name="cache_probe_module"):
    linecache.checkcache(str(path))
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _registry_for(module):
    registry = ScenarioRegistry()
    for attr, name in (("factory_a", "probe/a"), ("factory_b", "probe/b")):
        factory = getattr(module, attr)
        registry.register(
            ScenarioSpec(
                name=name,
                factory=factory,
                parameters=parameters_from_signature(factory),
                metric_fields=("value",),
            )
        )
    return registry


class TestCacheIndex:
    def test_put_get_roundtrip_and_failure_exclusion(self, tmp_path):
        cache = CacheIndex(tmp_path / "cache")
        ok = RunRecord(scenario="s", params={"a": 1}, seed=1, metrics={"m": 2.0})
        bad = RunRecord(scenario="s", params={"a": 1}, seed=2, status="failed", error="x")
        key_ok = "a" * 64
        key_bad = "b" * 64
        assert cache.put(key_ok, ok)
        assert not cache.put(key_bad, bad)  # failures are never cached
        assert cache.get(key_ok) == ok
        assert cache.get(key_bad) is None
        assert cache.get(None) is None
        assert len(cache) == 1
        assert cache.stats()["entries"] == 1
        assert CacheIndex(tmp_path / "cache").get(key_ok) == ok  # a fresh reader too
        assert cache.clear() == 1
        assert cache.get(key_ok) is None
        assert CacheIndex(tmp_path / "cache").get(key_ok) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = CacheIndex(tmp_path / "cache")
        key = "c" * 64
        cache.put(key, RunRecord(scenario="s", params={}, seed=1, metrics={"m": 1.0}))
        garble_entry(tmp_path / "cache", key, b"{not json")
        reader = CacheIndex(tmp_path / "cache")
        assert reader.get(key) is None
        assert reader.misses == 1 and reader.hits == 0

    def test_cache_key_depends_on_source_params_and_seed(self):
        spec = load_builtin_scenarios().get("demo/random_walk")
        fingerprint = spec.source_fingerprint()
        assert fingerprint is not None
        base = content_cache_key(fingerprint, {"steps": 100}, 1)
        assert content_cache_key(fingerprint, {"steps": 100}, 1) == base
        assert content_cache_key(fingerprint, {"steps": 101}, 1) != base
        assert content_cache_key(fingerprint, {"steps": 100}, 2) != base
        assert content_cache_key("0" * 64, {"steps": 100}, 1) != base

    def test_engine_fingerprint_is_folded_into_cache_keys(self, monkeypatch):
        """An engine edit (different engine fingerprint) must change every
        spec's cache keys even though no factory source changed."""
        import repro.experiments.spec as spec_module

        spec = load_builtin_scenarios().get("demo/random_walk")
        before = spec.source_fingerprint()
        assert before is not None
        assert spec_module.engine_fingerprint() == spec_module.engine_fingerprint()
        monkeypatch.setattr(spec_module, "_engine_fingerprint", "different-engine")
        assert spec.source_fingerprint() != before

    def test_unrelated_source_edit_keeps_cache_hits(self, tmp_path):
        """Editing scenario B re-runs only B: A's completed cells stay warm
        across stores — the distributed-cache acceptance criterion."""
        module_path = tmp_path / "cache_probe_module.py"
        module_path.write_text(
            _MODULE_TEMPLATE.format(a_expr="seed * scale", b_expr="seed + scale")
        )
        registry = _registry_for(_load_module(module_path))
        cache = CacheIndex(tmp_path / "cache")
        seeds = [1, 2, 3]

        first_a = ParallelCampaignRunner(
            registry=registry, cache=cache, store=ResultStore(tmp_path / "a1.jsonl")
        ).run("probe/a", seeds=seeds)
        first_b = ParallelCampaignRunner(registry=registry, cache=cache).run(
            "probe/b", seeds=seeds
        )
        assert first_a.executed == 3 and first_a.cached == 0
        assert first_b.executed == 3 and first_b.cached == 0
        fingerprint_a = registry.get("probe/a").source_fingerprint()

        # Edit factory_b only; factory_a's source (and cache keys) unchanged.
        module_path.write_text(
            _MODULE_TEMPLATE.format(a_expr="seed * scale", b_expr="seed - scale")
        )
        registry = _registry_for(_load_module(module_path))
        assert registry.get("probe/a").source_fingerprint() == fingerprint_a
        assert registry.get("probe/b").source_fingerprint() != fingerprint_a

        second_a = ParallelCampaignRunner(
            registry=registry, cache=cache, store=ResultStore(tmp_path / "a2.jsonl")
        ).run("probe/a", seeds=seeds)
        second_b = ParallelCampaignRunner(registry=registry, cache=cache).run(
            "probe/b", seeds=seeds
        )
        # A re-ran zero cells; the edited B re-ran everything.
        assert second_a.cached == 3 and second_a.executed == 0
        assert second_b.cached == 0 and second_b.executed == 3
        assert [r.metrics for r in second_b.records] != [r.metrics for r in first_b.records]
        # The cache-hit store is byte-identical to the executed one.
        assert (tmp_path / "a1.jsonl").read_bytes() == (tmp_path / "a2.jsonl").read_bytes()

    def test_on_disk_edit_without_reload_keeps_the_running_fingerprint(self, tmp_path):
        """The fingerprint describes the code that runs: rewriting a loaded
        module's file without reloading it leaves the fingerprint alone
        (the old factory still computes the old physics); reloading the
        module, which makes a new factory, moves it."""
        module_path = tmp_path / "cache_probe_module.py"
        module_path.write_text(_MODULE_TEMPLATE.format(a_expr="seed * scale", b_expr="seed"))
        spec = _registry_for(_load_module(module_path)).get("probe/a")
        before = spec.source_fingerprint()
        assert before is not None

        module_path.write_text(
            _MODULE_TEMPLATE.format(a_expr="seed + scale + 0.0", b_expr="seed")
        )
        # A later mtime whatever the filesystem clock's granularity, so a
        # source reader that checks the file on disk does see the edit.
        stat = module_path.stat()
        os.utime(module_path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
        assert spec.build(2, {"scale": 3.0}) == {"value": 6.0}
        assert spec.source_fingerprint() == before

        reloaded = _registry_for(_load_module(module_path)).get("probe/a")
        assert reloaded.build(2, {"scale": 3.0}) == {"value": 5.0}
        assert reloaded.source_fingerprint() != before

    def test_campaign_populates_and_consumes_cache_across_stores(self, tmp_path):
        cache = CacheIndex(tmp_path / "cache")
        first = ParallelCampaignRunner(
            store=ResultStore(tmp_path / "one.jsonl"), cache=cache
        ).run("demo/random_walk", seeds=[1, 2, 3, 4])
        assert first.executed == 4 and first.cached == 0
        second = ParallelCampaignRunner(
            store=ResultStore(tmp_path / "two.jsonl"), cache=cache
        ).run("demo/random_walk", seeds=[1, 2, 3, 4])
        assert second.executed == 0 and second.cached == 4
        assert second.aggregates == first.aggregates
        assert (tmp_path / "one.jsonl").read_bytes() == (tmp_path / "two.jsonl").read_bytes()


class TestFactorySource:
    """Each factory's source is read once per process, keyed by identity."""

    @staticmethod
    def _count_source_reads(monkeypatch):
        reads = []
        real_getsource = inspect.getsource

        def counting_getsource(obj):
            reads.append(obj)
            return real_getsource(obj)

        monkeypatch.setattr(inspect, "getsource", counting_getsource)
        return reads

    def test_each_factory_is_read_once(self, tmp_path, monkeypatch):
        module_path = tmp_path / "source_read_module.py"
        module_path.write_text(
            _MODULE_TEMPLATE.format(a_expr="seed * scale", b_expr="seed + scale")
        )
        registry = _registry_for(_load_module(module_path, name="source_read_module"))
        spec = registry.get("probe/a")
        reads = self._count_source_reads(monkeypatch)

        fingerprint = spec.source_fingerprint()
        assert fingerprint is not None
        assert spec.source_fingerprint() == fingerprint
        spool = Spool(tmp_path / "spool")
        spool.initialise()
        cells = [(rs.params, rs.seed, rs.index) for rs in spec.runs(seeds=[1, 2])]
        for task in shard_cells(cells, "probe/a", task_size=1):
            spool.publish_task(task)
        for _ in range(2):
            results = execute_task(spool.claim_next(), spool, registry)
            assert all(record.ok for _, record in results)
        assert spool.is_drained()
        assert reads == [spec.factory]

        # A different factory object reads its own source, even one that
        # reads the same: reloading the module makes new factories.
        other = registry.get("probe/b")
        assert other.source_fingerprint() not in (None, fingerprint)
        reloaded = _registry_for(_load_module(module_path, name="source_read_module"))
        again = reloaded.get("probe/a")
        assert again.factory is not spec.factory
        assert again.source_fingerprint() == fingerprint
        assert reads == [spec.factory, other.factory, again.factory]

    def test_unavailable_source_is_none_and_does_not_raise(self, monkeypatch):
        namespace = {}
        exec("def factory(seed, scale=1.0):\n    return {'value': seed}\n", namespace)
        factory = namespace["factory"]
        spec = ScenarioSpec(
            name="probe/exec",
            factory=factory,
            parameters=parameters_from_signature(factory),
            metric_fields=("value",),
        )
        reads = self._count_source_reads(monkeypatch)
        assert factory_source(factory) is None
        assert spec.source_fingerprint() is None
        assert reads == [factory]


# --------------------------------------------------------------------------
# CLI surface
# --------------------------------------------------------------------------


class TestDistributedCli:
    def test_spool_run_merge_and_cache_commands(self, tmp_path, capsys):
        serial = str(tmp_path / "serial.jsonl")
        assert cli_main(["run", "demo/random_walk", "--seeds", "4", "--store", serial]) == 0
        capsys.readouterr()

        spool = str(tmp_path / "spool")
        rc = cli_main(
            [
                "run", "demo/random_walk", "--seeds", "4",
                "--backend", "spool", "--spool", spool,
                "--workers", "1", "--task-size", "2", "--timeout", "120",
            ]
        )
        assert rc == 0
        assert "backend=spool" in capsys.readouterr().out

        merged = str(tmp_path / "merged.jsonl")
        assert cli_main(["merge", merged, spool]) == 0
        capsys.readouterr()
        assert (tmp_path / "serial.jsonl").read_bytes() == (tmp_path / "merged.jsonl").read_bytes()

        cache = str(tmp_path / "cache")
        assert cli_main(["run", "demo/random_walk", "--seeds", "4", "--cache", cache]) == 0
        out = capsys.readouterr().out
        assert "0 cached" in out
        assert cli_main(["run", "demo/random_walk", "--seeds", "4", "--cache", cache]) == 0
        assert "4 cached" in capsys.readouterr().out
        assert cli_main(["cache", "stats", cache]) == 0
        assert "4 cached record(s)" in capsys.readouterr().out
        assert cli_main(["cache", "clear", cache]) == 0
        assert "removed 4" in capsys.readouterr().out

    def test_spool_campaign_counts_each_cache_miss_once(self, tmp_path, capsys):
        """The coordinator looks every cell up before publishing it, and its
        workers never look a cell up again: one miss per cell."""
        cache = str(tmp_path / "cache")
        rc = cli_main(
            [
                "run", "demo/safety_kernel", "--seeds", "8", "--workers", "2",
                "--spool", str(tmp_path / "spool"), "--cache", cache,
                "--store", str(tmp_path / "cold.jsonl"),
            ]
        )
        assert rc == 0
        warm = ["run", "demo/safety_kernel", "--seeds", "8", "--cache", cache]
        assert cli_main(warm + ["--store", str(tmp_path / "warm.jsonl")]) == 0
        assert "8 cached" in capsys.readouterr().out
        assert cli_main(["cache", "stats", cache]) == 0
        assert "lifetime: 8 hit(s), 8 miss(es), 8 put(s)" in capsys.readouterr().out
        assert (tmp_path / "cold.jsonl").read_bytes() == (tmp_path / "warm.jsonl").read_bytes()

    def test_spool_backend_requires_spool_dir(self, capsys):
        assert cli_main(["run", "demo/random_walk", "--backend", "spool"]) == 2
        assert "--spool" in capsys.readouterr().err

    def test_spool_only_options_rejected_without_spool_backend(self, capsys):
        rc = cli_main(["run", "demo/random_walk", "--seeds", "2", "--timeout", "60"])
        assert rc == 2
        assert "--timeout" in capsys.readouterr().err
        rc = cli_main(
            ["run", "demo/random_walk", "--seeds", "2", "--backend", "inline", "--workers", "4"]
        )
        assert rc == 2
        assert "--workers only applies to --backend spool (not inline)" in capsys.readouterr().err
        # An explicitly non-spool backend must not silently ignore --spool.
        rc = cli_main(
            ["run", "demo/random_walk", "--seeds", "2", "--backend", "inline",
             "--spool", "somewhere"]
        )
        assert rc == 2
        assert "--spool" in capsys.readouterr().err

    def test_negative_workers_rejected(self, tmp_path, capsys):
        rc = cli_main(
            ["run", "demo/random_walk", "--seeds", "2", "--backend", "spool",
             "--spool", str(tmp_path / "spool"), "--workers", "-2"]
        )
        assert rc == 2
        assert "--workers must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option, message",
        [
            ({"workers": -1}, "workers must be >= 0"),
            ({"max_respawns": -1}, "max_respawns must be >= 0"),
            ({"timeout": 0}, "timeout must be positive"),
        ],
    )
    def test_bad_backend_options_are_rejected_at_construction(self, tmp_path, option, message):
        """Rejected before any worker is forked, not as dead workers."""
        options = {"workers": 2, "max_respawns": 2, **option}
        with pytest.raises(ValueError, match=message):
            SpoolBackend(tmp_path / "spool", **options)

    def test_jobs_is_the_spool_worker_count(self, tmp_path, capsys):
        rc = cli_main(
            [
                "run", "demo/random_walk", "--seeds", "2", "--jobs", "3",
                "--backend", "spool", "--spool", str(tmp_path / "spool"),
            ]
        )
        assert rc == 0
        assert "backend=spool jobs=3" in capsys.readouterr().out

    def test_merge_rejects_missing_source(self, tmp_path, capsys):
        rc = cli_main(["merge", str(tmp_path / "out.jsonl"), str(tmp_path / "nope")])
        assert rc == 2
        assert "no such store or spool" in capsys.readouterr().err

    def test_worker_cli_drains_spool(self, tmp_path, capsys):
        spool = Spool(tmp_path / "spool")
        spool.initialise()
        _, cells = _demo_cells([1, 2])
        for task in shard_cells(cells, "demo/random_walk", task_size=1):
            spool.publish_task(task)
        rc = cli_main(["worker", str(tmp_path / "spool"), "--idle-timeout", "0.05", "--poll", "0.01"])
        assert rc == 0
        assert "2 tasks" in capsys.readouterr().out
        assert spool.is_drained()

    def test_worker_cli_has_no_cache_option(self, tmp_path, capsys):
        """Only the campaign runner reads and writes the result cache."""
        with pytest.raises(SystemExit) as exit_info:
            cli_main(
                ["worker", str(tmp_path / "spool"), "--idle-timeout", "0.05",
                 "--cache", str(tmp_path / "cache")]
            )
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --cache" in capsys.readouterr().err
        assert not (tmp_path / "cache").exists()
