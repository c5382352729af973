"""Tests for ``repro.observability``: progress files, event logs, profiling.

Covers the subsystem's acceptance criteria: recording is off and free by
default, the ``run --profile`` phase accumulator is per cell and
physics-blind while live (the byte-identity half lives in
``test_scenario_fingerprints``), progress.json round-trips its schema and
is kept current by the runner and the spool coordinator, the event log
keeps append order under two racing workers, and the ``status`` / ``tail``
/ ``run --profile`` CLI surfaces work end to end.
"""

import json
import logging
import multiprocessing
import os
import sys
import threading
import time

import pytest

from repro.distributed import CacheIndex, Spool, SpoolBackend, SpoolDispatchError, run_worker
from repro.distributed.spool import shard_cells
from repro.experiments import ParallelCampaignRunner, ResultStore
from repro.experiments.cli import main as cli_main
from repro.experiments.registry import load_builtin_scenarios
from repro.observability import (
    EVENT_KINDS,
    CampaignProgress,
    EventLog,
    ProgressTracker,
    follow_events,
    read_events,
    read_progress,
    write_progress,
)
from repro.experiments.runner import execute_run
from repro.observability.trace import TRACER
from repro.sim import kernel as sim_kernel
from repro.sim.kernel import SimulationError, Simulator


def _demo_cells(seeds):
    spec = load_builtin_scenarios().get("demo/random_walk")
    run_specs = spec.runs(seeds=seeds)
    return spec, [(rs.params, rs.seed, rs.index) for rs in run_specs]


# --------------------------------------------------------------------------
# Per-cell phase accumulator (run --profile) and free-when-off
# --------------------------------------------------------------------------


class TestKernelInstrumentation:
    def test_run_until_records_build_and_sim_spans(self):
        phases = sim_kernel.PHASES = {}
        try:
            sim = Simulator()
            sim.schedule(1.0, lambda: None)
            sim.run_until(2.0)
            build = phases["scenario.build"]
            sim.run_until(4.0)
        finally:
            sim_kernel.PHASES = None
        assert set(phases) == {"scenario.build", "scenario.sim"}
        assert phases["scenario.build"] == build  # once per simulator
        assert phases["scenario.sim"] > 0.0  # summed over both run_until calls

    def test_run_until_records_nothing_while_disabled(self):
        assert sim_kernel.PHASES is None
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run_until(2.0)
        assert sim_kernel.PHASES is None
        assert not sim._build_span_recorded

    def test_run_until_charges_sim_time_even_when_it_raises(self):
        phases = sim_kernel.PHASES = {}
        try:
            sim = Simulator()
            sim.run_until(5.0)
            sim_s = phases["scenario.sim"]
            with pytest.raises(SimulationError):
                sim.run_until(1.0)
        finally:
            sim_kernel.PHASES = None
        assert phases["scenario.sim"] > sim_s

    def test_recording_is_off_and_free_by_default(self):
        """What the perf gates time is the un-instrumented-equivalent path:
        tracing off with one shared no-op span, no phase accumulator, and
        an unprofiled run carrying no phases."""
        assert not TRACER.enabled, "tracing is enabled (REPRO_TRACE_DIR?)"
        assert TRACER.span("cell", cat="cell") is TRACER.span("task", cat="task")
        assert sim_kernel.PHASES is None
        spec = load_builtin_scenarios().get("demo/safety_kernel")
        record = execute_run(spec, spec.runs(seeds=[1])[0])
        assert record.ok and record.phases is None
        assert sim_kernel.PHASES is None

    def test_profiled_run_times_its_own_phases_and_uninstalls(self):
        spec = load_builtin_scenarios().get("demo/safety_kernel")
        record = execute_run(spec, spec.runs(seeds=[1])[0], profile=True)
        assert record.ok
        assert set(record.phases) == {"scenario.build", "scenario.sim", "run.collect"}
        assert all(value > 0.0 for value in record.phases.values())
        assert sim_kernel.PHASES is None

    def test_failed_profiled_run_keeps_its_phases_and_uninstalls(self):
        spec = load_builtin_scenarios().get("demo/random_walk")
        run_spec = spec.runs(params={"steps": -5}, seeds=[1])[0]
        record = execute_run(spec, run_spec, profile=True)
        assert not record.ok
        assert record.phases == {"scenario.build": 0.0, "scenario.sim": 0.0, "run.collect": 0.0}
        assert sim_kernel.PHASES is None


# --------------------------------------------------------------------------
# Progress files
# --------------------------------------------------------------------------


class TestProgress:
    def test_round_trip_preserves_every_field(self, tmp_path):
        progress = CampaignProgress(
            scenario="demo/random_walk",
            total=10,
            pending=2,
            running=3,
            done=4,
            failed=1,
            cached=2,
            reused=1,
            backend="spool",
            complete=False,
            started_at=100.0,
            updated_at=101.5,
            throughput_rps=2.5,
            eta_s=0.8,
            workers={"w1": {"state": "running", "age_s": 0.2}},
        )
        path = tmp_path / "progress.json"
        write_progress(path, progress)
        loaded = read_progress(path)
        assert loaded == progress
        assert json.loads(path.read_text())["version"] == 1

    def test_read_missing_or_corrupt_returns_none(self, tmp_path):
        assert read_progress(tmp_path / "absent.json") is None
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text("{not json")
        assert read_progress(corrupt) is None
        wrong_shape = tmp_path / "list.json"
        wrong_shape.write_text("[1, 2]")
        assert read_progress(wrong_shape) is None

    def test_tracker_lifecycle_counts_partition_the_campaign(self, tmp_path):
        path = tmp_path / "progress.json"
        tracker = ProgressTracker(path, scenario="s", backend="inline", min_interval=0.0)
        tracker.begin(total=6, reused=1, cached=1)
        tracker.set_running(4)
        snapshot = read_progress(path)
        assert snapshot.total == 6 and snapshot.done == 2  # reused + cached
        assert snapshot.running == 4 and snapshot.pending == 0
        assert not snapshot.complete
        tracker.record_record(ok=True)
        tracker.record_record(ok=True)
        tracker.record_record(ok=False)
        tracker.record_record(ok=True)
        tracker.finish()
        final = read_progress(path)
        assert final.complete
        assert (final.done, final.failed, final.running, final.pending) == (5, 1, 0, 0)
        assert final.done + final.failed == final.total
        assert final.throughput_rps > 0
        assert final.eta_s is None  # complete campaigns carry no ETA

    def test_tracker_throttles_intermediate_writes(self, tmp_path):
        path = tmp_path / "progress.json"
        tracker = ProgressTracker(path, scenario="s", min_interval=3600.0)
        tracker.begin(total=3)  # forced write
        first = path.read_text()
        tracker.record_record(ok=True)
        tracker.record_record(ok=True)
        assert path.read_text() == first  # throttled
        tracker.finish()  # forced write
        assert read_progress(path).done == 2

    def test_tracker_creates_its_parent_directory(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "progress.json"
        tracker = ProgressTracker(path, scenario="s")
        tracker.begin(total=1)
        assert read_progress(path) is not None

    def test_eta_reflects_remaining_over_throughput(self, tmp_path):
        tracker = ProgressTracker(tmp_path / "p.json", scenario="s", min_interval=0.0)
        tracker.begin(total=100)
        tracker._started_mono -= 10.0  # pretend 10s elapsed
        for _ in range(10):
            tracker.record_record(ok=True)
        snapshot = tracker.snapshot()
        assert snapshot.throughput_rps == pytest.approx(1.0, rel=0.05)
        assert snapshot.eta_s == pytest.approx(90.0, rel=0.05)


# --------------------------------------------------------------------------
# Event log
# --------------------------------------------------------------------------


class TestEventLog:
    def test_emit_and_read_round_trip(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl", source="me")
        log.emit("worker_start", pid=1)
        log.emit("task_claimed", task="task-00000")
        events = read_events(tmp_path / "events.jsonl")
        assert [event["kind"] for event in events] == ["worker_start", "task_claimed"]
        assert all(event["source"] == "me" for event in events)
        assert all("ts" in event for event in events)

    def test_unknown_kind_raises(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        with pytest.raises(ValueError, match="unknown event kind"):
            log.emit("task_exploded")

    def test_missing_directory_drops_instead_of_creating(self, tmp_path):
        log = EventLog(tmp_path / "spool" / "events.jsonl", source="w")
        assert log.emit("worker_start") is None
        assert log.dropped == 1
        assert not (tmp_path / "spool").exists()  # never conjured the spool

    def test_read_skips_malformed_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        log.emit("worker_start")
        with path.open("a") as handle:
            handle.write("{torn line\n")
        log.emit("worker_exit")
        assert [event["kind"] for event in read_events(path)] == [
            "worker_start",
            "worker_exit",
        ]

    def test_read_filters_by_kind(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        log.emit("worker_start")
        log.emit("cache_hit")
        log.emit("cache_miss")
        assert [e["kind"] for e in read_events(path, kinds={"cache_hit", "cache_miss"})] == [
            "cache_hit",
            "cache_miss",
        ]

    def test_read_missing_file_is_empty(self, tmp_path):
        assert read_events(tmp_path / "absent.jsonl") == []

    def test_follow_drains_remaining_events_before_stopping(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        log.emit("worker_start")
        stopped = threading.Event()

        def append_then_stop():
            log.emit("task_claimed", task="t")
            log.emit("worker_exit")
            stopped.set()

        thread = threading.Thread(target=append_then_stop)
        thread.start()
        thread.join()
        events = list(follow_events(path, poll_interval=0.01, stop=stopped.is_set))
        assert [event["kind"] for event in events] == [
            "worker_start",
            "task_claimed",
            "worker_exit",
        ]


# --------------------------------------------------------------------------
# Runner and spool integration
# --------------------------------------------------------------------------


class TestRunnerProgress:
    def test_store_campaign_writes_progress_sidecar(self, tmp_path):
        store_path = tmp_path / "results.jsonl"
        result = ParallelCampaignRunner(store=ResultStore(store_path)).run(
            "demo/random_walk", seeds=[1, 2, 3]
        )
        assert result.failures == 0
        progress = read_progress(tmp_path / "results.jsonl.progress.json")
        assert progress.scenario == "demo/random_walk"
        assert progress.complete and progress.backend == "inline"
        assert (progress.total, progress.done, progress.failed) == (3, 3, 0)

    def test_resumed_campaign_reports_reuse(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        ParallelCampaignRunner(store=store).run("demo/random_walk", seeds=[1, 2])
        ParallelCampaignRunner(store=ResultStore(store.path)).run(
            "demo/random_walk", seeds=[1, 2]
        )
        progress = read_progress(f"{store.path}.progress.json")
        assert progress.complete
        assert progress.reused == 2 and progress.done == 2

    def test_explicit_progress_path_without_store(self, tmp_path):
        path = tmp_path / "campaign-progress.json"
        ParallelCampaignRunner(progress_path=path).run("demo/random_walk", seeds=[1])
        assert read_progress(path).complete

    def test_no_store_no_progress_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        ParallelCampaignRunner().run("demo/random_walk", seeds=[1])
        assert list(tmp_path.iterdir()) == []


class TestSpoolObservability:
    def test_two_worker_campaign_event_ordering_and_progress(self, tmp_path):
        spool_root = tmp_path / "spool"
        backend = SpoolBackend(spool_root, workers=2, timeout=120.0, poll_interval=0.01)
        result = ParallelCampaignRunner(backend=backend).run(
            "demo/random_walk", seeds=[1, 2, 3, 4]
        )
        assert result.failures == 0

        events = read_events(spool_root / "events.jsonl")
        kinds = [event["kind"] for event in events]
        assert kinds[0] == "campaign_start"
        assert "campaign_complete" in kinds
        assert kinds.index("campaign_complete") > max(
            index for index, kind in enumerate(kinds) if kind == "task_completed"
        )
        assert all(kind in EVENT_KINDS for kind in kinds)
        # Each task's lifecycle is ordered within the single append-only log:
        # its claim precedes its completion.
        for task_id in {e["task"] for e in events if e["kind"] == "task_completed"}:
            claimed_at = next(
                i for i, e in enumerate(events)
                if e["kind"] == "task_claimed" and e["task"] == task_id
            )
            completed_at = next(
                i for i, e in enumerate(events)
                if e["kind"] == "task_completed" and e["task"] == task_id
            )
            assert claimed_at < completed_at
        completed = [e for e in events if e["kind"] == "task_completed"]
        assert sum(e["cells"] for e in completed) == 4
        # Two real worker processes both appended under their own source ids.
        sources = {e["source"] for e in events if e["kind"] == "worker_start"}
        assert len(sources) == 2

        progress = read_progress(spool_root / "progress.json")
        assert progress.complete and progress.backend == "spool"
        assert (progress.total, progress.done, progress.failed) == (4, 4, 0)
        heartbeats = Spool(spool_root).worker_heartbeats()
        assert len(heartbeats) == 2
        for heartbeat in heartbeats.values():
            assert heartbeat["state"] == "exited"
            assert heartbeat["tasks_completed"] >= 0
            assert "age_s" in heartbeat

    def test_worker_reports_reclaimed_lease(self, tmp_path, caplog):
        spool = Spool(tmp_path / "spool", lease_timeout=0.01)
        spec, cells = _demo_cells([1])
        spool.initialise(metadata={"scenario": spec.name})
        (task,) = shard_cells(cells, spec.name, task_size=1)
        spool.publish_task(task)
        claimed = spool.claim(task.task_id)
        # Backdate the lease so it looks like a dead worker's claim.
        stale = time.time() - 60.0
        os.utime(claimed.claimed_path, (stale, stale))
        with caplog.at_level(logging.WARNING, logger="repro.distributed.worker"):
            stats = run_worker(
                spool.root, idle_timeout=0.5, poll_interval=0.01, lease_timeout=0.01
            )
        assert stats.tasks_completed == 1
        assert any("reclaimed expired lease" in message for message in caplog.messages)
        reclaim_events = read_events(spool.events_path, kinds={"task_reclaimed"})
        assert [event["task"] for event in reclaim_events] == [task.task_id]

    def test_coordinator_reports_dead_workers_as_they_die(self, tmp_path, caplog, monkeypatch):
        def dead_worker(self):
            process = multiprocessing.get_context("fork").Process(target=sys.exit, args=(3,))
            process.start()
            return process

        monkeypatch.setattr(SpoolBackend, "_spawn_worker", dead_worker)
        backend = SpoolBackend(tmp_path / "spool", workers=2, poll_interval=0.01)
        with caplog.at_level(logging.WARNING, logger="repro.distributed.coordinator"):
            with pytest.raises(SpoolDispatchError, match="exited"):
                ParallelCampaignRunner(backend=backend).run("demo/random_walk", seeds=[1, 2])
        early = [message for message in caplog.messages if "exited early" in message]
        assert len(early) == 2  # one warning per dead worker, as observed
        dead_events = read_events(tmp_path / "spool" / "events.jsonl", kinds={"worker_dead"})
        assert len(dead_events) == 2
        assert all(event["returncode"] == 3 for event in dead_events)

    def test_worker_exit_stats_include_busy_time_and_reason(self, tmp_path):
        spool = Spool(tmp_path / "spool")
        spec, cells = _demo_cells([1, 2])
        spool.initialise(metadata={"scenario": spec.name})
        for task in shard_cells(cells, spec.name, task_size=1):
            spool.publish_task(task)
        stats = run_worker(spool.root, idle_timeout=0.01, poll_interval=0.01)
        assert stats.tasks_completed == 2
        assert stats.busy_s > 0
        assert stats.exit_reason == "idle_timeout"
        exits = read_events(spool.events_path, kinds={"worker_exit"})
        assert exits[0]["reason"] == "idle_timeout"
        assert exits[0]["tasks_completed"] == 2


# --------------------------------------------------------------------------
# Distributed tracing (multi-process half; the single-process API surface
# lives in test_trace.py)
# --------------------------------------------------------------------------


class TestDistributedTracing:
    def test_two_real_workers_trace_concurrently(self, tmp_path):
        from repro.observability.trace import (
            disable_tracing,
            enable_tracing,
            merge_trace_files,
        )

        spool_root = tmp_path / "spool"
        trace_id = enable_tracing(spool_root, source="coordinator")
        try:
            backend = SpoolBackend(
                spool_root, workers=2, timeout=120.0, poll_interval=0.01
            )
            result = ParallelCampaignRunner(backend=backend).run(
                "demo/random_walk", seeds=[1, 2, 3, 4, 5, 6]
            )
        finally:
            disable_tracing()
        assert result.failures == 0

        # Whole-line appends: every line of every per-process trace file
        # parses — two racing workers never tear a span.  The coordinator
        # plus every worker that claimed a task (a worker that starts after
        # its peer drained the queue exits without a span).
        trace_files = sorted(spool_root.glob("trace-*.jsonl"))
        assert len(trace_files) >= 2
        for path in trace_files:
            for line in path.read_text(encoding="utf-8").splitlines():
                assert json.loads(line)["trace"] == trace_id

        spans = merge_trace_files(spool_root)
        # Merge ordering: one process's spans keep their per-process append
        # (seq) order no matter how wall-clock interleaves across pids.
        per_pid = {}
        for span in spans:
            per_pid.setdefault(span["pid"], []).append(span["seq"])
        assert len(per_pid) == len(trace_files)
        for seqs in per_pid.values():
            assert seqs == sorted(seqs)
        # Cross-process stitching: every worker task span parents to a
        # coordinator publish span, every cell span to a task span.
        publishes = {s["span"] for s in spans if s["name"] == "publish"}
        tasks = [s for s in spans if s["name"] == "task"]
        assert tasks and all(s["parent"] in publishes for s in tasks)
        task_ids = {s["span"] for s in tasks}
        cells = [s for s in spans if s["name"] == "cell"]
        assert all(s["parent"] in task_ids for s in cells)

        # Exactly one cell span per cell, each under a task span carrying a
        # measured queue wait, run by the spawned workers.  Nothing forces
        # both to claim: a worker that starts after its peer drained the
        # queue exits on the completion marker without a span.
        assert len(cells) == 6
        assert sorted(s["args"]["seed"] for s in cells) == [1, 2, 3, 4, 5, 6]
        assert all(s["args"]["queue_wait_s"] >= 0 for s in tasks)
        assert all(s["args"]["scenario"] == "demo/random_walk" for s in tasks)
        assert sum(s["args"]["cells"] for s in tasks) == 6
        started = {
            e["source"]
            for e in read_events(spool_root / "events.jsonl")
            if e["kind"] == "worker_start"
        }
        assert len(started) == 2
        assert {s["tid"] for s in cells} <= started

    def test_vector_campaign_progress_and_trace_agree(self, tmp_path):
        from repro.observability.trace import (
            disable_tracing,
            enable_tracing,
            merge_trace_files,
        )
        from repro.vectorized import VectorBatchBackend

        store = ResultStore(tmp_path / "results.jsonl")
        trace_dir = tmp_path / "trace"
        enable_tracing(trace_dir, source="runner")
        try:
            result = ParallelCampaignRunner(backend=VectorBatchBackend(), store=store).run(
                "tdma_convergence", seeds=list(range(1, 9))
            )
        finally:
            disable_tracing()
        assert result.failures == 0

        progress = read_progress(tmp_path / "results.jsonl.progress.json")
        assert progress.complete
        assert (progress.total, progress.done) == (8, 8)
        # EWMA throughput was folded in during the run and survives into
        # the final snapshot (the smoothed ETA is meaningless once done).
        assert progress.throughput_ewma_rps is not None
        assert progress.eta_smoothed_s is None

        # The progress sidecar's per-path counts are the campaign's, and
        # the trace accounts for them: one scalar probe cell span, and a
        # verified batch span holding the fast-path cells.
        assert progress.backend_cells == result.backend_cells == {"scalar": 1, "vector": 7}
        spans = merge_trace_files(trace_dir)
        assert [s["args"]["seed"] for s in spans if s["name"] == "cell"] == [1]
        batches = [s for s in spans if s["cat"] == "batch"]
        assert [s["args"]["outcome"] for s in batches] == ["verified"]
        assert batches[0]["args"]["fast_cells"] == progress.backend_cells["vector"]


# --------------------------------------------------------------------------
# Cache effectiveness counters
# --------------------------------------------------------------------------


class TestCacheCounters:
    def test_session_counters_track_hits_misses_puts(self, tmp_path):
        cache = CacheIndex(tmp_path / "cache")
        runner = ParallelCampaignRunner(cache=cache)
        runner.run("demo/random_walk", seeds=[1, 2])
        assert cache.session_stats() == {"hits": 0, "misses": 2, "puts": 2, "repairs": 0}
        warm = CacheIndex(tmp_path / "cache")
        ParallelCampaignRunner(cache=warm).run("demo/random_walk", seeds=[1, 2])
        assert warm.session_stats() == {"hits": 2, "misses": 0, "puts": 0, "repairs": 0}

    def test_flush_accumulates_lifetime_stats_across_instances(self, tmp_path):
        cache = CacheIndex(tmp_path / "cache")
        ParallelCampaignRunner(cache=cache).run("demo/random_walk", seeds=[1])
        # The runner flushes after the campaign; flushing again is a no-op.
        assert cache.flush_stats() is False
        fresh = CacheIndex(tmp_path / "cache")
        ParallelCampaignRunner(cache=fresh).run("demo/random_walk", seeds=[1])
        lifetime = CacheIndex(tmp_path / "cache").lifetime_stats()
        assert lifetime == {"hits": 1, "misses": 1, "puts": 1, "repairs": 0}
        assert CacheIndex(tmp_path / "cache").stats()["lifetime"] == lifetime


# --------------------------------------------------------------------------
# CLI surface: status, tail, profile, log-level
# --------------------------------------------------------------------------


class TestStatusAndTailCli:
    def _complete_campaign(self, tmp_path):
        store = str(tmp_path / "results.jsonl")
        assert cli_main(["run", "demo/random_walk", "--seeds", "2", "--store", store]) == 0
        return store

    def test_status_on_store_sidecar(self, tmp_path, capsys):
        store = self._complete_campaign(tmp_path)
        capsys.readouterr()
        assert cli_main(["status", store]) == 0
        out = capsys.readouterr().out
        assert "demo/random_walk" in out and "complete" in out and "2/2 done" in out

    def test_status_json_parses_and_matches_schema(self, tmp_path, capsys):
        store = self._complete_campaign(tmp_path)
        capsys.readouterr()
        assert cli_main(["status", store, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == 1
        assert document["complete"] is True
        assert document["done"] == document["total"] == 2

    def test_status_on_spool_directory(self, tmp_path, capsys):
        spool_root = tmp_path / "spool"
        backend = SpoolBackend(spool_root, workers=1, timeout=120.0, poll_interval=0.01)
        ParallelCampaignRunner(backend=backend).run("demo/random_walk", seeds=[1, 2])
        capsys.readouterr()
        assert cli_main(["status", str(spool_root)]) == 0
        out = capsys.readouterr().out
        assert "[spool] complete" in out and "2/2 done" in out

    def test_status_on_a_finished_spool_shows_no_running_worker(self, tmp_path, capsys):
        spool_root = str(tmp_path / "spool")
        argv = ["run", "demo/random_walk", "--seeds", "12", "--backend", "spool",
                "--spool", spool_root, "--workers", "3", "--task-size", "1"]
        assert cli_main(argv) == 0
        capsys.readouterr()
        assert cli_main(["status", spool_root, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["complete"] is True
        assert document["done"] == document["total"] == 12
        assert len(document["workers"]) == 3
        states = {worker: beat["state"] for worker, beat in document["workers"].items()}
        assert "running" not in states.values(), states

    def test_status_missing_progress_file(self, tmp_path, capsys):
        assert cli_main(["status", str(tmp_path / "nowhere.jsonl")]) == 1
        assert "no progress file" in capsys.readouterr().err

    def test_tail_prints_events_and_filters_kinds(self, tmp_path, capsys):
        spool_root = tmp_path / "spool"
        backend = SpoolBackend(spool_root, workers=1, timeout=120.0, poll_interval=0.01)
        ParallelCampaignRunner(backend=backend).run("demo/random_walk", seeds=[1, 2])
        capsys.readouterr()
        assert cli_main(["tail", str(spool_root), "-n", "0"]) == 0
        out = capsys.readouterr().out
        assert "campaign_start" in out and "campaign_complete" in out
        assert cli_main(["tail", str(spool_root), "--kind", "task_completed"]) == 0
        filtered = capsys.readouterr().out
        assert "task_completed" in filtered and "campaign_start" not in filtered

    def test_tail_respects_line_limit(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        log = EventLog(path, source="w")
        for index in range(10):
            log.emit("cache_miss", index=index)
        capsys.readouterr()
        assert cli_main(["tail", str(path), "-n", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3 and "index=9" in lines[-1]

    def test_tail_unknown_kind_and_missing_log(self, tmp_path, capsys):
        assert cli_main(["tail", str(tmp_path), "--kind", "nope"]) == 2
        assert "unknown event kind" in capsys.readouterr().err
        assert cli_main(["tail", str(tmp_path)]) == 1
        assert "no event log" in capsys.readouterr().err


class TestProfileCli:
    def test_profile_prints_phase_table_and_writes_sidecar(self, tmp_path, capsys):
        # demo/safety_kernel actually drives the event kernel, so its cells
        # have a nonzero scenario.sim phase (demo/random_walk is pure numpy).
        store = str(tmp_path / "results.jsonl")
        assert cli_main(
            ["run", "demo/safety_kernel", "--seeds", "2", "--store", store, "--profile"]
        ) == 0
        out = capsys.readouterr().out
        assert "phase profile over 2 executed cell(s)" in out
        assert "scenario.sim" in out
        sidecar = json.loads((tmp_path / "results.jsonl.profile.json").read_text())
        assert sidecar["scenario"] == "demo/safety_kernel"
        assert len(sidecar["cells"]) == 2
        for cell in sidecar["cells"]:
            assert set(cell["phases"]) == {"scenario.build", "scenario.sim", "run.collect"}
            assert cell["phases"]["scenario.sim"] > 0
        assert {row["phase"] for row in sidecar["summary"]} == {
            "scenario.build",
            "scenario.sim",
            "run.collect",
        }

    def test_profile_leaves_no_phase_accumulator_installed(self, tmp_path):
        assert sim_kernel.PHASES is None
        assert cli_main(["run", "demo/random_walk", "--seeds", "1", "--profile"]) == 0
        assert sim_kernel.PHASES is None

    def test_profile_timers_count_only_this_campaigns_cells(self, tmp_path, capsys):
        # Two profiled campaigns in one process: each sidecar's percentile
        # rows cover its own two cells, never the earlier campaign's too.
        for name in ("first", "second"):
            store = str(tmp_path / f"{name}.jsonl")
            assert cli_main(
                ["run", "demo/safety_kernel", "--seeds", "2", "--store", store, "--profile"]
            ) == 0
            sidecar = json.loads((tmp_path / f"{name}.jsonl.profile.json").read_text())
            timers = {row["timer"]: row for row in sidecar["timers"]}
            assert set(timers) == {"scenario.build", "scenario.sim", "run.collect"}
            for row in timers.values():
                assert row["count"] == 2
                assert 0.0 < row["p50_s"] <= row["p95_s"] <= row["max_s"]

    def test_profile_percentiles_are_exact_over_the_cells(self):
        from types import SimpleNamespace

        from repro.experiments.cli import _profile_document

        records = [
            SimpleNamespace(
                params={},
                seed=seed,
                status="ok",
                duration=float(seed),
                phases={"scenario.build": 0.0, "scenario.sim": float(seed), "run.collect": 0.0},
            )
            for seed in (1, 2, 3, 4, 5)
        ]
        records.append(SimpleNamespace(phases=None))  # a reused cell: not profiled
        document = _profile_document(SimpleNamespace(scenario="s", records=records))
        assert len(document["cells"]) == 5
        sim = next(row for row in document["timers"] if row["timer"] == "scenario.sim")
        assert sim == {
            "timer": "scenario.sim",
            "count": 5,
            "mean_s": 3.0,
            "p50_s": 3.0,
            "p95_s": 4.8,  # interpolated between the two largest cells
            "max_s": 5.0,
        }

    def test_report_surfaces_profile_sidecar(self, tmp_path, capsys):
        store = str(tmp_path / "results.jsonl")
        assert cli_main(
            ["run", "demo/random_walk", "--seeds", "2", "--store", store, "--profile"]
        ) == 0
        capsys.readouterr()
        assert cli_main(["report", store]) == 0
        out = capsys.readouterr().out
        assert "phase profile" in out and "scenario.sim" in out

    def test_profile_rejects_parallel_backends(self, tmp_path, capsys):
        rc = cli_main(["run", "demo/random_walk", "--seeds", "2", "--jobs", "2", "--profile"])
        assert rc == 2
        assert "--profile requires in-process execution" in capsys.readouterr().err

    def test_cache_counters_in_run_output(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert cli_main(["run", "demo/random_walk", "--seeds", "2", "--cache", cache]) == 0
        assert "cache: 0 hit(s), 2 miss(es), 2 put(s)" in capsys.readouterr().out
        assert cli_main(["run", "demo/random_walk", "--seeds", "2", "--cache", cache]) == 0
        assert "cache: 2 hit(s), 0 miss(es), 0 put(s)" in capsys.readouterr().out
        assert cli_main(["cache", "stats", cache]) == 0
        stats_out = capsys.readouterr().out
        assert "lifetime: 2 hit(s), 2 miss(es), 2 put(s)" in stats_out


class TestLogLevelFlag:
    def test_log_level_flag_accepted_on_subcommands(self, tmp_path, capsys):
        assert cli_main(["list", "--log-level", "info"]) == 0
        capsys.readouterr()
        store = str(tmp_path / "results.jsonl")
        assert cli_main(
            ["run", "demo/random_walk", "--seeds", "1", "--store", store,
             "--log-level", "debug"]
        ) == 0
        assert logging.getLogger().level == logging.DEBUG
        assert cli_main(["status", store, "--log-level", "error"]) == 0
        assert logging.getLogger().level == logging.ERROR
