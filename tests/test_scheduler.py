"""Elastic spool scheduling: adaptive shards, speculation, stealing,
cell deadlines, worker health, and spool fsck."""

import json
import random
import time

import pytest

from repro.distributed import (
    CellTimeout,
    Spool,
    SpoolBackend,
    WorkerHealth,
    cell_deadline,
    fsck_spool,
    merge_spool_results,
    run_worker,
)
from repro.distributed.coordinator import _campaign_id
from repro.distributed.scheduler import (
    ElapsedStats,
    ElasticScheduler,
    param_signature,
)
from repro.distributed.spool import SpoolTask, shard_cells
from repro.experiments import ParallelCampaignRunner, ResultStore
from repro.experiments.cli import main as cli_main
from repro.experiments.registry import load_builtin_scenarios
from repro.observability.events import EVENT_KINDS, read_events
from repro.observability.progress import read_progress
from repro.resilience import PLAN_ENV, FaultPlan, FaultRule, armed


def _demo_cells(seeds):
    spec = load_builtin_scenarios().get("demo/random_walk")
    run_specs = spec.runs(seeds=seeds)
    return spec, [(rs.params, rs.seed, rs.index) for rs in run_specs]


def _serial_store(tmp_path, seeds, name="serial.jsonl"):
    path = tmp_path / name
    ParallelCampaignRunner(jobs=1, store=ResultStore(path)).run(
        "demo/random_walk", seeds=seeds
    )
    return path


# --------------------------------------------------------------------------
# Cell deadlines
# --------------------------------------------------------------------------


class TestCellDeadline:
    def test_kills_a_runaway_cell_within_twice_the_deadline(self):
        deadline = 0.2
        started = time.monotonic()
        with pytest.raises(CellTimeout) as excinfo:
            with cell_deadline(deadline, task="task-00000", index=3):
                time.sleep(30.0)  # blocking C call; SIGALRM must interrupt it
        elapsed = time.monotonic() - started
        assert elapsed < 2.0 * deadline
        assert excinfo.value.index == 3
        assert excinfo.value.task == "task-00000"
        assert excinfo.value.seconds == deadline

    def test_is_a_base_exception_so_failed_record_capture_cannot_eat_it(self):
        # execute_run turns `Exception` into failed in-shard records; a
        # deadline kill must instead abort the task with no shard at all.
        assert issubclass(CellTimeout, BaseException)
        assert not issubclass(CellTimeout, Exception)

    def test_none_or_nonpositive_deadline_is_a_noop(self):
        with cell_deadline(None):
            pass
        with cell_deadline(0.0):
            pass

    def test_previous_sigalrm_handler_is_restored(self):
        import signal

        previous = signal.getsignal(signal.SIGALRM)
        with cell_deadline(5.0, task="t", index=0):
            assert signal.getsignal(signal.SIGALRM) is not previous
        assert signal.getsignal(signal.SIGALRM) is previous

    def test_stall_directive_disables_the_watchdog(self):
        plan = FaultPlan([FaultRule(point="worker.deadline", kind="stall")])
        with armed(plan):
            with cell_deadline(0.05, task="t", index=0):
                time.sleep(0.15)  # would have been killed without the stall


# --------------------------------------------------------------------------
# Adaptive shard sizing
# --------------------------------------------------------------------------


class TestElapsedStats:
    def test_shard_size_scales_inverse_to_cell_cost(self):
        stats = ElapsedStats()
        stats.add("cheap", cells=1, elapsed_s=0.01)
        stats.add("dear", cells=1, elapsed_s=1.0)
        assert stats.shard_size("cheap", target_task_s=2.0, max_cells=32) == 32
        assert stats.shard_size("dear", target_task_s=2.0, max_cells=32) == 2

    def test_no_history_defaults_to_single_cell_shards(self):
        assert ElapsedStats().shard_size("anything") == 1

    def test_unprobed_signature_falls_back_to_global_median(self):
        stats = ElapsedStats()
        stats.add("seen", cells=2, elapsed_s=0.2)
        assert stats.median_cell_s("never-seen") == pytest.approx(0.1)

    def test_param_signature_ignores_nothing_but_is_canonical(self):
        assert param_signature({"b": 1, "a": 2}) == param_signature({"a": 2, "b": 1})
        assert param_signature({"a": 1}) != param_signature({"a": 2})


# --------------------------------------------------------------------------
# Worker health
# --------------------------------------------------------------------------


class TestWorkerHealth:
    def test_fresh_worker_is_healthy_and_unbenched(self):
        health = WorkerHealth()
        assert health.score() == 1.0
        assert not health.benched()

    def test_repeated_timeouts_bench_the_worker(self):
        health = WorkerHealth(window=8, bench_below=0.5, min_events=4)
        for _ in range(4):
            health.record_timeout()
        assert health.benched()
        assert health.heartbeat_fields() == {"health": 0.0, "benched": True}

    def test_successes_rehabilitate_a_benched_worker(self):
        health = WorkerHealth(window=4, bench_below=0.5, min_events=4)
        for _ in range(4):
            health.record_io_failure()
        assert health.benched()
        for _ in range(4):
            health.record_success()
        assert not health.benched()
        assert health.score() == 1.0

    def test_idle_jitter_is_seeded_per_worker_id(self):
        # The thundering-herd fix: decorrelated but deterministic polling.
        first = [random.Random("worker-1").random() for _ in range(3)]
        again = [random.Random("worker-1").random() for _ in range(3)]
        other = [random.Random("worker-2").random() for _ in range(3)]
        assert first == again
        assert first != other


# --------------------------------------------------------------------------
# Work stealing (split_pending)
# --------------------------------------------------------------------------


class TestWorkStealing:
    def test_split_halves_preserve_cells_and_claim_order(self, tmp_path):
        spool = Spool(tmp_path / "spool")
        spool.initialise()
        _, cells = _demo_cells([1, 2, 3, 4, 5])
        (task,) = shard_cells(cells, "demo/random_walk", task_size=5)
        spool.publish_task(task)
        halves = spool.split_pending(task.task_id)
        assert halves == (f"{task.task_id}-a", f"{task.task_id}-b")
        pending = spool.pending_task_ids()
        assert pending == sorted(pending)  # halves claim in run-list order
        first = spool.claim(halves[0]).task
        second = spool.claim(halves[1]).task
        assert first.cells + second.cells == task.cells
        assert len(first.cells) == 3 and len(second.cells) == 2

    def test_half_ids_sort_between_parent_and_successor(self):
        assert "task-00000" < "task-00000-a" < "task-00000-b" < "task-00001"

    def test_too_small_tasks_are_requeued_not_split(self, tmp_path):
        spool = Spool(tmp_path / "spool")
        spool.initialise()
        _, cells = _demo_cells([1])
        (task,) = shard_cells(cells, "demo/random_walk", task_size=1)
        spool.publish_task(task)
        assert spool.split_pending(task.task_id) is None
        assert spool.pending_task_ids() == [task.task_id]

    def test_campaign_with_one_oversized_task_splits_and_stays_byte_identical(
        self, tmp_path
    ):
        serial = _serial_store(tmp_path, range(1, 9))
        backend = SpoolBackend(
            tmp_path / "spool",
            workers=2,
            task_size=8,  # one task; idle second worker must steal half
            poll_interval=0.02,
            timeout=120.0,
        )
        elastic = tmp_path / "elastic.jsonl"
        result = ParallelCampaignRunner(store=ResultStore(elastic), backend=backend).run(
            "demo/random_walk", seeds=range(1, 9)
        )
        assert result.failures == 0
        assert serial.read_bytes() == elastic.read_bytes()
        spool = Spool(tmp_path / "spool")
        kinds = {event["kind"] for event in read_events(spool.events_path)}
        assert kinds <= EVENT_KINDS
        assert "shard_split" in kinds
        assert spool.quarantined_task_ids() == []


# --------------------------------------------------------------------------
# Speculation
# --------------------------------------------------------------------------


class TestSpeculation:
    def _scheduler(self, spool, **kwargs):
        return ElasticScheduler(
            spool,
            "demo/random_walk",
            publish=spool.publish_task,
            make_task=lambda task_id, cells: SpoolTask(
                task_id=task_id, scenario="demo/random_walk", cells=tuple(cells)
            ),
            speculation_min_age_s=0.5,
            **kwargs,
        )

    def test_straggler_claim_gets_a_speculative_copy(self, tmp_path):
        spool = Spool(tmp_path / "spool")
        spool.initialise()
        _, cells = _demo_cells([1, 2])
        tasks = shard_cells(cells, "demo/random_walk", task_size=1)
        for task in tasks:
            spool.publish_task(task)
        scheduler = self._scheduler(spool)
        for task in tasks:
            scheduler.register_published(task.task_id, cells=len(task.cells))
        scheduler.stats.add(None, cells=1, elapsed_s=0.01)  # median known
        claimed = spool.claim(tasks[0].task_id)
        assert claimed is not None
        spool.claim(tasks[1].task_id)  # queue empty; both claimed
        scheduler.observe([], [tasks[0].task_id, tasks[1].task_id], now=100.0)
        assert spool.pending_task_ids() == []  # not stragglers yet
        scheduler.observe([], [tasks[0].task_id, tasks[1].task_id], now=110.0)
        pending = spool.pending_task_ids()
        assert f"{tasks[0].task_id}~1" in pending
        assert scheduler.counters["speculated"] == 2
        # One copy per task, ever: another poll must not re-speculate.
        scheduler.observe([], [tasks[0].task_id], now=200.0)
        assert scheduler.counters["speculated"] == 2

    def test_speculative_copy_sorts_right_after_its_original(self):
        assert "task-00001" < "task-00001~1" < "task-00002"

    def test_stall_fault_suppresses_speculation(self, tmp_path):
        spool = Spool(tmp_path / "spool")
        spool.initialise()
        _, cells = _demo_cells([1])
        (task,) = shard_cells(cells, "demo/random_walk", task_size=1)
        spool.publish_task(task)
        scheduler = self._scheduler(spool)
        scheduler.register_published(task.task_id, cells=1)
        scheduler.stats.add(None, cells=1, elapsed_s=0.01)
        spool.claim(task.task_id)
        plan = FaultPlan(
            [FaultRule(point="scheduler.speculate", kind="stall", times=None)]
        )
        with armed(plan):
            scheduler.observe([], [task.task_id], now=100.0)
            scheduler.observe([], [task.task_id], now=110.0)
        assert spool.pending_task_ids() == []
        assert scheduler.counters["speculated"] == 0

    def test_no_history_means_no_speculation(self, tmp_path):
        spool = Spool(tmp_path / "spool")
        spool.initialise()
        _, cells = _demo_cells([1])
        (task,) = shard_cells(cells, "demo/random_walk", task_size=1)
        spool.publish_task(task)
        scheduler = self._scheduler(spool)
        scheduler.register_published(task.task_id, cells=1)
        spool.claim(task.task_id)
        scheduler.observe([], [task.task_id], now=100.0)
        scheduler.observe([], [task.task_id], now=1000.0)
        assert spool.pending_task_ids() == []  # can't tell straggler from slow

    def test_stalled_worker_loses_the_race_and_its_shard_is_superseded(
        self, tmp_path, monkeypatch
    ):
        """Satellite: a worker stalled by an injected sleep holds its claim
        past the speculation threshold; the copy's records win, the late
        byte-identical twin is discarded at ingest with `task_superseded`,
        and the merged store matches the serial run exactly.

        Start-up timing does not decide the outcome.  Every worker stalls
        0.5 s at ``worker.start``, about the start-up cost of a fresh
        interpreter, and the roles do not depend on which worker claims
        first.  task-00001's cells sleep 0.1 s each, so its claim is always
        observed and the speculation history (about 0.1 s per cell, a
        0.6 s threshold) never hinges on poll timing.  Whichever worker
        takes task-00002 stalls 3 s, far past the threshold, while its peer
        is free to run the copy."""
        serial = _serial_store(tmp_path, range(1, 7))
        plan = FaultPlan(
            [
                FaultRule(point="worker.start", kind="sleep", args={"seconds": 0.5}),
                FaultRule(
                    point="worker.cell", kind="sleep",
                    match={"task": "task-00000"}, args={"seconds": 1.5},
                ),
                FaultRule(
                    point="worker.cell", kind="sleep",
                    match={"task": "task-00001"}, times=None, args={"seconds": 0.1},
                ),
                FaultRule(
                    point="worker.cell", kind="sleep",
                    match={"task": "task-00002"}, args={"seconds": 3.0},
                ),
            ]
        )
        plan_path = plan.save(tmp_path / "plan.json")
        monkeypatch.setenv(PLAN_ENV, str(plan_path))  # workers arm it at start
        backend = SpoolBackend(
            tmp_path / "spool",
            workers=2,
            task_size=2,
            lease_timeout=30.0,  # leases must outlive the injected stalls
            poll_interval=0.02,
            timeout=120.0,
        )
        elastic = tmp_path / "elastic.jsonl"
        result = ParallelCampaignRunner(store=ResultStore(elastic), backend=backend).run(
            "demo/random_walk", seeds=range(1, 7)
        )
        assert result.failures == 0
        assert serial.read_bytes() == elastic.read_bytes()
        spool = Spool(tmp_path / "spool")
        kinds = {event["kind"] for event in read_events(spool.events_path)}
        assert kinds <= EVENT_KINDS
        assert "task_speculated" in kinds
        assert "task_superseded" in kinds
        assert spool.quarantined_task_ids() == []
        # The spool's merged view is equally byte-identical, duplicates and all.
        merged = tmp_path / "merged.jsonl"
        merge_spool_results(spool, ResultStore(merged))
        assert serial.read_bytes() == merged.read_bytes()


# --------------------------------------------------------------------------
# Cell-deadline campaigns
# --------------------------------------------------------------------------


class TestCellTimeoutCampaign:
    def test_runaway_cell_is_killed_and_quarantined_as_cell_timeout(
        self, tmp_path, monkeypatch
    ):
        deadline = 1.0
        plan = FaultPlan(
            [
                FaultRule(
                    point="run.cell", kind="sleep",
                    match={"seed": 2}, times=None, args={"seconds": 60.0},
                )
            ]
        )
        plan_path = plan.save(tmp_path / "plan.json")
        monkeypatch.setenv(PLAN_ENV, str(plan_path))
        backend = SpoolBackend(
            tmp_path / "spool",
            workers=1,
            task_size=1,
            poll_interval=0.02,
            timeout=120.0,
            max_task_attempts=2,
            cell_timeout=deadline,
        )
        store_path = tmp_path / "store.jsonl"
        started = time.monotonic()
        result = ParallelCampaignRunner(store=ResultStore(store_path), backend=backend).run(
            "demo/random_walk", seeds=[1, 2, 3]
        )
        elapsed = time.monotonic() - started
        assert elapsed < 60.0  # the 60s sleep never ran to completion
        assert result.failures == 1
        (failed,) = [record for record in result.records if not record.ok]
        assert failed.seed == 2
        assert failed.error_class == "CellTimeout"
        assert "deadline" in failed.error
        spool = Spool(tmp_path / "spool")
        assert spool.quarantined_task_ids() == ["task-00001"]
        events = read_events(spool.events_path)
        assert {event["kind"] for event in events} <= EVENT_KINDS
        kills = [event for event in events if event["kind"] == "cell_timeout"]
        assert kills and all(event["seconds"] == deadline for event in kills)
        # The watchdog fired within twice the deadline of the claim.
        claims = {
            event["task"]: event["ts"]
            for event in events
            if event["kind"] == "task_claimed"
        }
        for kill in kills:
            assert kill["ts"] - claims[kill["task"]] < 2.0 * deadline

    def test_requeue_timeout_event_feeds_ledger_and_timeout_indices(self, tmp_path):
        spool = Spool(tmp_path / "spool", max_task_attempts=2)
        spool.initialise()
        _, cells = _demo_cells([1])
        (task,) = shard_cells(cells, "demo/random_walk", task_size=1)
        spool.publish_task(task)
        assert (
            spool.requeue(spool.claim_next(), event="timeout", index=0) == "requeued"
        )
        assert spool.reclaim_count(task.task_id) == 1
        assert (
            spool.requeue(spool.claim_next(), event="timeout", index=0) == "quarantined"
        )
        # The cap-hitting attempt rides the quarantine line as its cause, so
        # the attempt count stays accurate and the index stays attributable.
        assert spool.reclaim_count(task.task_id) == 1
        assert spool.timeout_indices(task.task_id) == {0}


# --------------------------------------------------------------------------
# Adaptive campaigns
# --------------------------------------------------------------------------


class TestAdaptiveCampaign:
    def test_adaptive_campaign_is_byte_identical_and_reports_counters(self, tmp_path):
        serial = _serial_store(tmp_path, range(1, 9))
        backend = SpoolBackend(
            tmp_path / "spool",
            workers=2,
            task_size="adaptive",
            poll_interval=0.02,
            timeout=120.0,
        )
        adaptive = tmp_path / "adaptive.jsonl"
        result = ParallelCampaignRunner(store=ResultStore(adaptive), backend=backend).run(
            "demo/random_walk", seeds=range(1, 9)
        )
        assert result.failures == 0
        assert serial.read_bytes() == adaptive.read_bytes()
        spool = Spool(tmp_path / "spool")
        events = read_events(spool.events_path)
        assert {event["kind"] for event in events} <= EVENT_KINDS
        (start,) = [event for event in events if event["kind"] == "campaign_start"]
        assert start["tasks"] == 1  # one probe (single parameter signature)
        progress = read_progress(spool.progress_path)
        assert progress is not None and progress.complete
        assert progress.scheduler.get("backlog_published", 0) >= 1

    def test_adaptive_task_size_rejects_resume(self, tmp_path):
        _, cells = _demo_cells([1, 2])
        fixed = _campaign_id("demo/random_walk", cells, 2)
        adaptive = _campaign_id("demo/random_walk", cells, "adaptive")
        assert fixed != adaptive  # adaptive spools never match a fixed resume

    def test_bad_task_size_strings_are_rejected(self):
        with pytest.raises(ValueError):
            SpoolBackend("unused-spool", task_size="huge")

    def test_progress_scheduler_field_round_trips(self, tmp_path):
        from repro.observability.progress import ProgressTracker

        path = tmp_path / "progress.json"
        tracker = ProgressTracker(path, scenario="s", backend="spool")
        tracker.begin(total=4)
        tracker.set_scheduler({"speculated": 2, "splits_observed": 1})
        tracker.finish(complete=True)
        progress = read_progress(path)
        assert progress.scheduler == {"speculated": 2, "splits_observed": 1}
        # Plain campaigns keep the v1 schema: no scheduler key at all.
        plain = tmp_path / "plain.json"
        plain_tracker = ProgressTracker(plain, scenario="s", backend="inline")
        plain_tracker.begin(total=1)
        plain_tracker.finish(complete=True)
        assert "scheduler" not in json.loads(plain.read_text())


# --------------------------------------------------------------------------
# fsck
# --------------------------------------------------------------------------


class TestFsck:
    def _damaged_spool(self, tmp_path):
        spool = Spool(tmp_path / "spool", max_task_attempts=3)
        spool.initialise()
        _, cells = _demo_cells([1, 2, 3])
        tasks = shard_cells(cells, "demo/random_walk", task_size=1)
        for task in tasks:
            spool.publish_task(task)
        # Complete the first task legitimately so a valid shard exists.
        run_worker(spool.root, idle_timeout=0.05, poll_interval=0.01, max_tasks=1)
        assert spool.verify_shard(tasks[0].task_id)
        # Torn shard: bytes that can never pass the sha256 trailer.
        (spool.results_dir / f"{tasks[1].task_id}.jsonl").write_text("{torn\n")
        # Orphaned lease: claim still held although a valid shard exists
        # (shard verification checks only the trailer, so borrow good bytes).
        assert spool.claim(tasks[2].task_id) is not None
        good = (spool.results_dir / f"{tasks[0].task_id}.jsonl").read_bytes()
        (spool.results_dir / f"{tasks[2].task_id}.jsonl").write_bytes(good)
        # Stale + unparsable heartbeats:
        spool.workers_dir.mkdir(parents=True, exist_ok=True)
        (spool.workers_dir / "w-stale.json").write_text(
            json.dumps({"state": "idle", "ts": time.time() - 10_000})
        )
        (spool.workers_dir / "w-bad.json").write_text("not json")
        return spool, tasks

    def test_fsck_detects_damage_and_repair_heals_it(self, tmp_path):
        spool, tasks = self._damaged_spool(tmp_path)
        report = fsck_spool(spool)
        kinds = {issue["kind"] for issue in report["issues"]}
        assert "torn_shard" in kinds
        assert "orphaned_lease" in kinds
        assert "stale_heartbeat" in kinds
        assert "bad_heartbeat" in kinds
        assert report["ok"] is False

        repaired = fsck_spool(spool, repair=True)
        assert repaired["ok"] is True
        assert repaired["repaired"]
        clean = fsck_spool(spool)
        assert clean["issues"] == [] and clean["ok"] is True
        assert not (spool.results_dir / f"{tasks[1].task_id}.jsonl").exists()
        assert not (spool.workers_dir / "w-stale.json").exists()
        assert not (spool.workers_dir / "w-bad.json").exists()

    def test_fsck_lifts_quarantine_on_a_completed_task(self, tmp_path):
        spool = Spool(tmp_path / "spool", max_task_attempts=1)
        spool.initialise()
        _, cells = _demo_cells([1])
        (task,) = shard_cells(cells, "demo/random_walk", task_size=1)
        spool.publish_task(task)
        # Execute it so a valid shard exists, then force it into quarantine.
        run_worker(spool.root, idle_timeout=0.05, poll_interval=0.01, max_tasks=1)
        assert spool.verify_shard(task.task_id)
        spool.quarantine_dir.mkdir(parents=True, exist_ok=True)
        (spool.quarantine_dir / f"{task.task_id}.json").write_text(
            json.dumps(task.to_json_dict())
        )
        report = fsck_spool(spool, repair=True)
        assert any(
            issue["kind"] == "quarantine_completed" for issue in report["issues"]
        )
        assert spool.quarantined_task_ids() == []

    def test_fsck_cli_reports_and_repairs(self, tmp_path, capsys):
        spool, _ = self._damaged_spool(tmp_path)
        assert cli_main(["fsck", str(spool.root)]) == 1
        out = capsys.readouterr().out
        assert "issue(s)" in out and "--repair" in out
        assert cli_main(["fsck", str(spool.root), "--repair"]) == 0
        assert "repaired:" in capsys.readouterr().out
        assert cli_main(["fsck", str(spool.root), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["issues"] == [] and document["ok"] is True

    def test_fsck_cli_rejects_a_non_spool_directory(self, tmp_path, capsys):
        assert cli_main(["fsck", str(tmp_path / "nowhere")]) == 1
        assert "not a campaign spool" in capsys.readouterr().out


# --------------------------------------------------------------------------
# Recovery of last resort
# --------------------------------------------------------------------------


class TestRepublishMissing:
    def test_recovery_task_ids_sort_after_every_numeric_id(self):
        assert "task-99999" < "task-r00000" < "task-r00001"

    def test_republish_missing_covers_the_cells(self, tmp_path):
        spool = Spool(tmp_path / "spool")
        spool.initialise()
        scheduler = ElasticScheduler(
            spool,
            "demo/random_walk",
            publish=spool.publish_task,
            make_task=lambda task_id, cells: SpoolTask(
                task_id=task_id, scenario="demo/random_walk", cells=tuple(cells)
            ),
        )
        _, cells = _demo_cells([1, 2, 3])
        assert scheduler.republish_missing(cells) == 1
        (pending,) = spool.pending_task_ids()
        assert pending.startswith("task-r")
        assert len(spool.claim(pending).task.cells) == 3
        assert scheduler.counters["republished_missing"] == 1


# --------------------------------------------------------------------------
# CLI validation
# --------------------------------------------------------------------------


class TestElasticCli:
    def test_task_size_accepts_adaptive_and_rejects_garbage(self, capsys):
        rc = cli_main(
            ["run", "demo/random_walk", "--seeds", "1", "--task-size", "huge"]
        )
        assert rc == 2
        assert "--task-size" in capsys.readouterr().err

    def test_cell_timeout_is_spool_only_and_positive(self, tmp_path, capsys):
        rc = cli_main(
            ["run", "demo/random_walk", "--seeds", "1", "--cell-timeout", "5"]
        )
        assert rc == 2
        assert "--cell-timeout" in capsys.readouterr().err
        rc = cli_main(
            ["run", "demo/random_walk", "--seeds", "1", "--backend", "spool",
             "--spool", str(tmp_path / "spool"), "--cell-timeout", "-1"]
        )
        assert rc == 2
        assert "--cell-timeout" in capsys.readouterr().err
