"""Tests for ``repro.observability``: progress files, event logs, cell phases.

Covers the subsystem's acceptance criteria: recording is off and free by
default, a cell's build/sim/collect phases are trace spans of its attempt
and physics-blind while live (the byte-identity half lives in
``test_scenario_fingerprints``), progress.json round-trips its schema and
is kept current by the runner and the spool coordinator, the event log
keeps append order under two racing workers, and the ``status`` / ``tail``
/ ``run --trace`` phase-table CLI surfaces work end to end.
"""

import json
import logging
import multiprocessing
import os
import sys
import threading
import time
from collections import Counter

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
from repro.observability.events import EventCursor, worker_states
from repro.experiments.runner import execute_run
from repro.observability.trace import (
    TRACER,
    disable_tracing,
    enable_tracing,
    merge_trace_files,
    summarize_trace,
)
from repro.sim.kernel import SimulationError, Simulator


def _demo_cells(seeds):
    spec = load_builtin_scenarios().get("demo/random_walk")
    run_specs = spec.runs(seeds=seeds)
    return spec, [(rs.params, rs.seed, rs.index) for rs in run_specs]


# --------------------------------------------------------------------------
# Cell phases as trace spans, and free-when-off
# --------------------------------------------------------------------------


@pytest.fixture
def phase_spans(tmp_path):
    """Tracing on into ``tmp_path/trace`` for one test; yields a reader of
    the ``phase`` spans written so far."""
    trace_dir = tmp_path / "trace"
    enable_tracing(trace_dir, source="test")
    yield lambda: [span for span in merge_trace_files(trace_dir) if span["cat"] == "phase"]
    disable_tracing()


class TestKernelInstrumentation:
    def test_run_until_records_one_build_span_per_simulator(self, phase_spans):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run_until(2.0)
        sim.run_until(4.0)
        Simulator().run_until(1.0)
        names = [span["name"] for span in phase_spans()]
        assert names.count("scenario.build") == 2  # once per simulator
        assert names.count("scenario.sim") == 3  # once per run_until call

    def test_build_span_runs_from_construction_to_the_first_run(self, phase_spans):
        sim = Simulator()
        time.sleep(0.02)
        sim.run_until(1.0)
        (build,) = [span for span in phase_spans() if span["name"] == "scenario.build"]
        assert build["dur"] >= 0.02

    def test_run_until_charges_sim_time_even_when_it_raises(self, phase_spans):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(SimulationError):
            sim.run_until(1.0)
        assert [span["name"] for span in phase_spans()].count("scenario.sim") == 2

    def test_run_until_records_nothing_while_disabled(self):
        assert not TRACER.enabled
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run_until(2.0)
        assert not sim._build_span_recorded

    def test_recording_is_off_and_free_by_default(self, tmp_path, monkeypatch):
        """What the perf gates time is the un-instrumented-equivalent path:
        tracing off, one shared no-op span, and nothing written anywhere."""
        assert not TRACER.enabled, "tracing is enabled (a test left it on?)"
        assert TRACER.span("cell", cat="cell") is TRACER.span("task", cat="task")
        monkeypatch.chdir(tmp_path)
        TRACER.record("scenario.build", "phase", 0.0, 1.0)
        spec = load_builtin_scenarios().get("demo/safety_kernel")
        assert execute_run(spec, spec.runs(seeds=[1])[0]).ok
        assert list(tmp_path.iterdir()) == []

    def test_an_executed_cell_writes_its_phases_under_its_attempt(self, phase_spans):
        spec = load_builtin_scenarios().get("demo/safety_kernel")
        with TRACER.span("attempt", cat="attempt") as attempt:
            record = execute_run(spec, spec.runs(seeds=[1])[0])
        assert record.ok
        spans = phase_spans()
        assert [span["name"] for span in spans] == [
            "scenario.build", "scenario.sim", "run.collect"
        ]
        assert {span["parent"] for span in spans} == {attempt.span_id}
        assert all(span["dur"] > 0.0 for span in spans)

    def test_a_cell_that_fails_in_its_build_writes_no_phase(self, phase_spans):
        spec = load_builtin_scenarios().get("demo/random_walk")
        record = execute_run(spec, spec.runs(params={"steps": -5}, seeds=[1])[0])
        assert not record.ok
        assert phase_spans() == []


class TestCellPhaseTable:
    def _phase(self, name, attempt, dur):
        return {"ph": "X", "name": name, "cat": "phase", "ts": 0.0, "dur": dur,
                "pid": 1, "span": f"{attempt}-{name}", "parent": attempt}

    def test_percentiles_are_exact_over_the_attempts(self):
        spans = [self._phase("scenario.sim", f"a{seed}", float(seed)) for seed in (1, 2, 3, 4, 5)]
        spans.append({"ph": "X", "name": "cell", "cat": "cell", "ts": 0.0, "dur": 9.0})
        assert summarize_trace(spans)["cell_phases"] == [
            {
                "phase": "scenario.sim",
                "count": 5,
                "total_s": 15.0,
                "mean_s": 3.0,
                "p50_s": 3.0,
                "p95_s": 4.8,  # interpolated between the two largest attempts
                "max_s": 5.0,
            }
        ]

    def test_an_attempts_spans_of_one_phase_are_summed(self):
        spans = [
            self._phase("scenario.build", "a1", 0.5),
            self._phase("scenario.sim", "a1", 1.0),
            self._phase("scenario.sim", "a1", 2.0),  # a second run_until call
            self._phase("scenario.sim", "a2", 4.0),
        ]
        rows = {row["phase"]: row for row in summarize_trace(spans)["cell_phases"]}
        assert list(rows) == ["scenario.build", "scenario.sim"]
        assert rows["scenario.build"]["count"] == 1
        assert (rows["scenario.sim"]["count"], rows["scenario.sim"]["max_s"]) == (2, 4.0)
        assert rows["scenario.sim"]["p50_s"] == 3.5


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
        log.emit("task_claimed")
        log.emit("task_completed")
        assert [
            e["kind"] for e in read_events(path, kinds={"task_claimed", "task_completed"})
        ] == [
            "task_claimed",
            "task_completed",
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


    def test_cursor_reads_only_what_was_appended_since(self, tmp_path):
        path = tmp_path / "events.jsonl"
        cursor = EventCursor(path)
        assert cursor.read() == []  # no file yet
        log = EventLog(path, source="w")
        log.emit("worker_start")
        assert [event["kind"] for event in cursor.read()] == ["worker_start"]
        assert cursor.read() == []
        log.emit("worker_idle")
        with path.open("a") as handle:
            handle.write('{"kind": "worker_exit", "sou')  # an append in flight
        assert [event["kind"] for event in cursor.read()] == ["worker_idle"]
        with path.open("a") as handle:
            handle.write('rce": "w"}\n')
        assert cursor.read() == [{"kind": "worker_exit", "source": "w"}]
        assert cursor.offset == path.stat().st_size


def _log(*lines):
    """Hand-written event lines: (ts, source, kind, fields)."""
    return [
        {"ts": ts, "source": source, "kind": kind, **fields}
        for ts, source, kind, fields in lines
    ]


class TestWorkerStates:
    def test_every_transition(self):
        log = _log(
            (1.0, "w", "worker_start", {"pid": 7}),
            (2.0, "w", "worker_idle", {}),
            (3.0, "w", "task_claimed", {"task": "task-00000", "cells": 2}),
            (4.0, "w", "task_completed", {"task": "task-00000", "cells": 2, "failures": 1,
                                          "elapsed_s": 0.5}),
            (5.0, "w", "task_claimed", {"task": "task-00001", "cells": 1}),
            (6.0, "w", "cell_timeout", {"task": "task-00001", "index": 2, "seconds": 1.0}),
            (7.0, "w", "worker_idle", {}),
        )
        seen = [
            (state["w"]["state"], state["w"]["current_task"])
            for state in (worker_states(log[:n], now=10.0) for n in range(1, len(log) + 1))
        ]
        assert seen == [
            ("starting", None),
            ("idle", None),
            ("running", "task-00000"),
            ("running", None),
            ("running", "task-00001"),
            ("running", None),
            ("idle", None),
        ]
        (worker,) = worker_states(log, now=10.0).values()
        assert worker == {
            "state": "idle", "current_task": None, "pid": 7, "tasks_completed": 1,
            "runs_executed": 2, "failures": 1, "timeouts": 1, "busy_s": 0.5,
            "events_dropped": 0, "ts": 7.0, "age_s": 3.0,
        }
        exited = worker_states(log + _log((8.0, "w", "worker_exit", {"reason": "complete"})), 8.5)
        assert (exited["w"]["state"], exited["w"]["age_s"]) == ("exited", 0.5)

    def test_a_worker_dead_without_an_exit_is_dead(self):
        log = _log(
            (1.0, "w1", "worker_start", {"pid": 7}),
            (1.0, "w2", "worker_start", {"pid": 8}),
            (2.0, "w1", "task_claimed", {"task": "task-00000"}),
            (3.0, "w2", "worker_exit", {"reason": "complete"}),
            (4.0, "coordinator", "worker_dead", {"pid": 7, "returncode": -9}),
            (4.0, "coordinator", "worker_dead", {"pid": 8, "returncode": 0}),
        )
        states = worker_states(log, now=5.0)
        assert sorted(states) == ["w1", "w2"]  # the coordinator is no worker
        assert (states["w1"]["state"], states["w1"]["current_task"]) == ("dead", None)
        assert states["w1"]["age_s"] == 3.0  # from its own last event
        assert states["w2"]["state"] == "exited"

    def test_an_exited_workers_counts_are_its_worker_exit_fields(self):
        totals = {"tasks_completed": 2, "runs_executed": 3, "failures": 1, "timeouts": 1,
                  "busy_s": 1.25, "events_dropped": 4}
        log = _log(
            (1.0, "w", "task_claimed", {"task": "task-00000"}),
            # A completion the worker never logged, and a scenario it could
            # not resolve (cells that ran no simulation), leave the running
            # sums short; the exit totals are the exact ones.
            (2.0, "w", "task_completed", {"task": "task-00000", "cells": 4, "elapsed_s": 0.3}),
            (3.0, "w", "worker_exit", {"reason": "complete", **totals}),
        )
        (worker,) = worker_states(log, now=3.0).values()
        assert {name: worker[name] for name in totals} == totals

    def test_torn_lines_and_unknown_or_retired_kinds_are_skipped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        lines = [
            json.dumps({"ts": 1.0, "source": "w", "kind": "worker_start", "pid": 7}),
            '{"ts": 2.0, "source": "w", "kind": "task_cla',
            "[1, 2]",
            json.dumps({"ts": 3.0, "source": "w", "kind": "task_speculated", "task": "t"}),
            json.dumps({"ts": 4.0, "source": "v", "kind": "vector_batch", "cells": 8}),
            json.dumps({"ts": 5.0, "source": "v", "kind": "no_such_kind"}),
            json.dumps({"ts": 6.0, "kind": "task_claimed", "task": "t"}),  # no source
            json.dumps({"ts": 7.0, "source": ["w"], "kind": "task_claimed", "task": "t"}),
            json.dumps({"ts": 8.0, "source": "w", "kind": ["worker_exit"]}),
        ]
        path.write_text("\n".join(lines) + "\n")
        states = worker_states(read_events(path), now=10.0)
        assert list(states) == ["w"]
        assert states["w"]["state"] == "starting"
        assert states["w"]["tasks_completed"] == 0
        assert states["w"]["ts"] == 3.0  # a retired kind still shows it alive

    def test_a_fold_continues_from_its_previous_result(self):
        log = _log(
            (1.0, "w", "worker_start", {"pid": 7}),
            (2.0, "w", "task_claimed", {"task": "task-00000"}),
            (3.0, "w", "task_completed", {"task": "task-00000", "cells": 1, "elapsed_s": 0.1}),
            (4.0, "w", "worker_exit", {"reason": "complete", "tasks_completed": 1}),
        )
        first = worker_states(log[:2], now=9.0)
        frozen = json.dumps(first, sort_keys=True)
        assert worker_states(log[2:], 9.0, first) == worker_states(log, 9.0)
        assert json.dumps(first, sort_keys=True) == frozen


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
        # progress.json's workers are the log's, with worker_exit's totals.
        exits = {e["source"]: e for e in events if e["kind"] == "worker_exit"}
        assert set(progress.workers) == set(exits) == sources
        for source, worker in progress.workers.items():
            assert worker["state"] == "exited"
            for name in ("tasks_completed", "runs_executed", "failures", "busy_s"):
                assert worker[name] == exits[source][name]
            assert worker["age_s"] >= 0
        assert sum(worker["tasks_completed"] for worker in progress.workers.values()) == len(
            completed
        )

    def test_a_spool_campaign_writes_no_worker_files(self, tmp_path):
        spool_root = tmp_path / "spool"
        backend = SpoolBackend(spool_root, workers=2, timeout=120.0, poll_interval=0.01)
        ParallelCampaignRunner(backend=backend).run("demo/random_walk", seeds=[1, 2, 3, 4])
        assert not (spool_root / "workers").exists()

    def test_progress_lists_hand_started_workers_mid_campaign(self, tmp_path, capsys):
        """With ``--workers 0``, the coordinator folds the workers it never
        forked from the log, while the campaign still waits for cells."""
        spool_root = tmp_path / "spool"
        backend = SpoolBackend(
            spool_root, workers=0, task_size=1, timeout=120.0, poll_interval=0.01
        )
        campaign = threading.Thread(
            target=ParallelCampaignRunner(backend=backend).run,
            args=("demo/random_walk",),
            kwargs={"seeds": [1, 2, 3]},
        )
        campaign.start()
        try:
            deadline = time.monotonic() + 60.0
            while not (spool_root / "tasks").is_dir() and time.monotonic() < deadline:
                time.sleep(0.01)
            run_worker(spool_root, max_tasks=1, poll_interval=0.01, worker_id="w1")
            while time.monotonic() < deadline:
                progress = read_progress(spool_root / "progress.json")
                if progress is not None and "w1" in progress.workers:
                    break
                time.sleep(0.01)
            assert not progress.complete
            worker = progress.workers["w1"]
            assert (worker["state"], worker["tasks_completed"]) == ("exited", 1)
            assert worker["pid"] == os.getpid() and worker["age_s"] >= 0
            capsys.readouterr()
            assert cli_main(["status", str(spool_root)]) == 0
            line = capsys.readouterr().out.splitlines()[1]
            assert line.startswith("  w1: exited (1 tasks, 1 runs, last event ")
        finally:
            run_worker(spool_root, poll_interval=0.01, worker_id="w2")
            campaign.join(60.0)
        assert not campaign.is_alive()
        workers = read_progress(spool_root / "progress.json").workers
        assert {name: w["tasks_completed"] for name, w in workers.items()} == {"w1": 1, "w2": 2}

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

        # The trace accounts for the campaign's execution paths: one scalar
        # probe cell span, and a verified batch span holding the fast-path
        # cells.
        paths = Counter(record.executed_by for record in result.records)
        assert paths == {"scalar": 1, "vector": 7}
        spans = merge_trace_files(trace_dir)
        assert [s["args"]["seed"] for s in spans if s["name"] == "cell"] == [1]
        batches = [s for s in spans if s["cat"] == "batch"]
        assert [s["args"]["outcome"] for s in batches] == ["verified"]
        assert batches[0]["args"]["fast_cells"] == paths["vector"]


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
# CLI surface: status, tail, cell phases, log-level
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

    def test_worker_line_joins_its_counts_with_commas(self):
        from repro.experiments.cli import _format_worker

        worker = {
            "state": "running",
            "current_task": "task-00003",
            "tasks_completed": 3,
            "runs_executed": 5,
            "timeouts": 1,
            "events_dropped": 2,
            "age_s": 0.5,
        }
        assert _format_worker("w1", worker) == (
            "  w1: running on task-00003 (3 tasks, 5 runs, 1 timeout(s), "
            "2 dropped event(s), last event 0.5s ago)"
        )
        assert _format_worker("w2", {"state": "idle"}) == "  w2: idle (0 tasks, 0 runs)"

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
            log.emit("task_claimed", index=index)
        capsys.readouterr()
        assert cli_main(["tail", str(path), "-n", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3 and "index=9" in lines[-1]

    def test_tail_unknown_kind_and_missing_log(self, tmp_path, capsys):
        assert cli_main(["tail", str(tmp_path), "--kind", "nope"]) == 2
        assert "unknown event kind" in capsys.readouterr().err
        assert cli_main(["tail", str(tmp_path)]) == 1
        assert "no event log" in capsys.readouterr().err

    def test_tail_on_a_store_points_at_the_spool(self, tmp_path, capsys):
        store = self._complete_campaign(tmp_path)
        capsys.readouterr()
        for target in (store, f"{store}.events.jsonl"):
            assert cli_main(["tail", target]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1
            assert err[0].startswith("error: ") and "--spool DIR" in err[0]
        assert not (tmp_path / "results.jsonl.events.jsonl").exists()


def _printed_counts(out):
    """Phase -> count, read from the rows of the last phase table in ``out``."""
    counts = {}
    for line in out.splitlines():
        cells = [cell.strip() for cell in line.split("|")]
        if cells[0] in ("scenario.build", "scenario.sim", "run.collect"):
            counts[cells[0]] = int(cells[1])
    return counts


class TestCellPhasesCli:
    def _traced_run(self, store, seeds="2"):
        # demo/safety_kernel drives the event kernel, so its cells have all
        # three phases (demo/random_walk is pure numpy).
        argv = ["run", "demo/safety_kernel", "--seeds", seeds, "--store", str(store), "--trace"]
        assert cli_main(argv) == 0

    def test_traced_run_prints_its_cells_phase_table(self, tmp_path, capsys):
        store = tmp_path / "results.jsonl"
        self._traced_run(store)
        out = capsys.readouterr().out
        assert "demo/safety_kernel: cell phases of trace" in out
        rows = summarize_trace(merge_trace_files(f"{store}.trace"))["cell_phases"]
        assert [row["phase"] for row in rows] == ["scenario.build", "scenario.sim", "run.collect"]
        for row in rows:
            assert row["count"] == 2
            assert 0.0 < row["p50_s"] <= row["p95_s"] <= row["max_s"]
        assert _printed_counts(out) == {row["phase"]: 2 for row in rows}

    def test_each_campaigns_table_counts_only_its_own_cells(self, tmp_path, capsys):
        # Two campaigns trace into one directory: each run's table covers
        # the cells of its own trace id only.
        trace_dir = tmp_path / "shared"
        for seeds in ("2", "3"):
            argv = ["run", "demo/safety_kernel", "--seeds", seeds, "--trace-dir", str(trace_dir)]
            assert cli_main(argv) == 0
            counts = _printed_counts(capsys.readouterr().out)
            assert set(counts.values()) == {int(seeds)}, counts
        traces = {span["trace"] for span in merge_trace_files(trace_dir)}
        assert len(traces) == 2

    def test_report_surfaces_the_newest_traces_phase_table(self, tmp_path, capsys):
        store = tmp_path / "results.jsonl"
        self._traced_run(store, seeds="2")
        self._traced_run(store, seeds="3")  # resumes 2 cells, executes 1
        capsys.readouterr()
        assert cli_main(["report", str(store)]) == 0
        out = capsys.readouterr().out
        assert "cell phases of trace" in out and "(results.jsonl.trace)" in out
        assert set(_printed_counts(out).values()) == {1}

    @pytest.mark.parametrize(
        "flags, directory", [(["--spool", "sp", "--jobs", "2"], "sp"), (["--trace-dir", "td"], "td")]
    )
    def test_report_finds_a_trace_recorded_outside_the_store_sidecar(
        self, tmp_path, monkeypatch, capsys, flags, directory
    ):
        # Relative directories, and a report from another working directory:
        # the store's progress file records where the trace went.
        monkeypatch.chdir(tmp_path)
        argv = ["run", "demo/safety_kernel", "--seeds", "2", "--store", "s.jsonl", "--trace"]
        assert cli_main(argv + flags) == 0
        assert not (tmp_path / "s.jsonl.trace").exists()
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        capsys.readouterr()
        assert cli_main(["report", str(tmp_path / "s.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "cell phases of trace" in out and f"({directory})" in out
        assert set(_printed_counts(out).values()) == {2}
        assert cli_main(["trace", "summary", str(tmp_path / "s.jsonl")]) == 0

    def test_an_untraced_run_prints_and_writes_no_phase_table(self, tmp_path, capsys):
        store = tmp_path / "results.jsonl"
        assert cli_main(["run", "demo/safety_kernel", "--seeds", "1", "--store", str(store)]) == 0
        assert not TRACER.enabled
        assert "cell phases" not in capsys.readouterr().out
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "results.jsonl", "results.jsonl.progress.json"
        ]
        assert cli_main(["report", str(store)]) == 0
        assert "cell phases" not in capsys.readouterr().out

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
