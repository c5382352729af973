"""Spool scheduling and failure bounds: the default chunk schedule, cell
deadlines, late shards after a lease reclaim, lost tasks republished when
the queue drains, idle jitter and spool fsck."""

import json
import multiprocessing
import os
import random
import signal
import threading
import time

import pytest

from repro.distributed import (
    CellTimeout,
    Spool,
    SpoolBackend,
    cell_deadline,
    fsck_spool,
    merge_spool_results,
    run_worker,
)
from repro.distributed.coordinator import _campaign_id
from repro.distributed.spool import chunk_sizes, shard_cells
from repro.experiments import ParallelCampaignRunner, ResultStore
from repro.experiments.cli import main as cli_main
from repro.experiments.registry import load_builtin_scenarios
from repro.observability.events import EVENT_KINDS, read_events
from repro.observability.progress import ProgressTracker, read_progress
from repro.resilience import PLAN_ENV, FaultPlan, FaultRule, armed


def _demo_cells(seeds):
    spec = load_builtin_scenarios().get("demo/random_walk")
    run_specs = spec.runs(seeds=seeds)
    return spec, [(rs.params, rs.seed, rs.index) for rs in run_specs]


def _serial_store(tmp_path, seeds, name="serial.jsonl"):
    path = tmp_path / name
    ParallelCampaignRunner(store=ResultStore(path)).run(
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

    def test_off_the_main_thread_the_deadline_is_a_noop(self):
        # SIGALRM is delivered only to the main thread, so library callers
        # on other threads get no watchdog (and no foreign handler).
        previous = signal.getsignal(signal.SIGALRM)
        outcome = []

        def body():
            try:
                with cell_deadline(0.05, task="t", index=0):
                    time.sleep(0.15)
                outcome.append("finished")
            except BaseException as error:  # noqa: BLE001 — recorded below
                outcome.append(error)

        thread = threading.Thread(target=body)
        thread.start()
        thread.join(timeout=10.0)
        assert outcome == ["finished"]
        assert signal.getsignal(signal.SIGALRM) is previous

    def test_message_names_the_deadline_task_and_index(self):
        assert str(CellTimeout(1.5, task="task-00004", index=9)) == (
            "cell exceeded its 1.5s wall-clock deadline (task task-00004, index 9)"
        )
        assert str(CellTimeout(2.0)) == "cell exceeded its 2s wall-clock deadline"


# --------------------------------------------------------------------------
# Plain pull
# --------------------------------------------------------------------------


class TestPlainPull:
    def test_idle_jitter_is_seeded_per_worker_id(self):
        # The thundering-herd fix: decorrelated but deterministic polling.
        first = [random.Random("worker-1").random() for _ in range(3)]
        again = [random.Random("worker-1").random() for _ in range(3)]
        other = [random.Random("worker-2").random() for _ in range(3)]
        assert first == again
        assert first != other

    def test_one_task_campaign_on_three_workers_stays_byte_identical(self, tmp_path):
        serial = _serial_store(tmp_path, range(1, 9))
        backend = SpoolBackend(
            tmp_path / "spool",
            workers=3,
            task_size=8,  # one task: one worker runs it, two stay idle
            poll_interval=0.02,
            timeout=120.0,
        )
        pulled = tmp_path / "pulled.jsonl"
        result = ParallelCampaignRunner(store=ResultStore(pulled), backend=backend).run(
            "demo/random_walk", seeds=range(1, 9)
        )
        assert result.failures == 0
        assert serial.read_bytes() == pulled.read_bytes()
        spool = Spool(tmp_path / "spool")
        events = read_events(spool.events_path)
        assert {event["kind"] for event in events} <= EVENT_KINDS
        (start,) = [event for event in events if event["kind"] == "campaign_start"]
        assert start["tasks"] == 1
        claims = [event["task"] for event in events if event["kind"] == "task_claimed"]
        assert claims == ["task-00000"]
        assert spool.quarantined_task_ids() == []

    @pytest.mark.parametrize("value", ["huge", "adaptive", "auto"])
    def test_bad_task_size_strings_are_rejected(self, value):
        with pytest.raises(ValueError):
            SpoolBackend("unused-spool", task_size=value)

    @pytest.mark.parametrize("value", [0, -1])
    def test_nonpositive_task_size_is_rejected_at_construction(self, tmp_path, value):
        with pytest.raises(ValueError, match="task_size must be >= 1"):
            SpoolBackend(tmp_path / "spool", workers=2, task_size=value)
        assert not (tmp_path / "spool").exists()

    def test_campaign_id_covers_the_task_list(self):
        _, cells = _demo_cells(range(1, 9))

        def campaign_id(cells, task_size=None, workers=0):
            return _campaign_id(shard_cells(cells, "demo/random_walk", task_size, workers))

        one = campaign_id(cells, 1)
        assert one == campaign_id(cells, 1) == campaign_id(cells, workers=0)
        assert one != campaign_id(cells, 2)
        assert one != campaign_id(cells[:3], 1)
        assert campaign_id(cells, workers=2) != campaign_id(cells, workers=3)

    def _spool_run(self, tmp_path, task_size, name):
        backend = SpoolBackend(
            tmp_path / "spool",
            workers=1,
            task_size=task_size,
            poll_interval=0.02,
            timeout=120.0,
        )
        store = tmp_path / name
        result = ParallelCampaignRunner(store=ResultStore(store), backend=backend).run(
            "demo/random_walk", seeds=range(1, 5)
        )
        assert result.failures == 0
        return store, read_events(Spool(tmp_path / "spool").events_path)

    def test_same_task_size_resumes_the_finished_spool(self, tmp_path):
        first, _ = self._spool_run(tmp_path, 2, "first.jsonl")
        again, events = self._spool_run(tmp_path, 2, "again.jsonl")
        assert first.read_bytes() == again.read_bytes()
        (resumed,) = [event for event in events if event["kind"] == "campaign_resumed"]
        assert resumed["completed"] == 2
        # The resume keeps the first run's log; nothing is claimed after it.
        kinds = [event["kind"] for event in events]
        assert kinds.count("task_claimed") == 2
        assert "task_claimed" not in kinds[kinds.index("campaign_resumed") :]

    def test_other_task_size_purges_and_republishes(self, tmp_path):
        first, _ = self._spool_run(tmp_path, 2, "first.jsonl")
        again, events = self._spool_run(tmp_path, 1, "again.jsonl")
        assert first.read_bytes() == again.read_bytes()
        kinds = [event["kind"] for event in events]
        assert "campaign_resumed" not in kinds
        (start,) = [event for event in events if event["kind"] == "campaign_start"]
        assert start["tasks"] == 4
        assert kinds.count("task_claimed") == 4


# --------------------------------------------------------------------------
# The default chunk schedule
# --------------------------------------------------------------------------


class TestChunkSchedule:
    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 8])
    def test_sizes_never_grow_and_end_with_one_cell(self, workers):
        for cells in range(1, 300):
            sizes = chunk_sizes(cells, workers)
            assert sizes == chunk_sizes(cells, workers)
            assert sum(sizes) == cells
            assert all(later <= earlier for earlier, later in zip(sizes, sizes[1:]))
            assert sizes[-1] == 1

    def test_factoring_deals_rounds_of_equal_chunks(self):
        # Each round gives each worker ceil(remaining / (2 * workers)) cells.
        assert chunk_sizes(16, 2) == [4, 4, 2, 2, 1, 1, 1, 1]
        assert chunk_sizes(200, 2) == [50, 50, 25, 25, 13, 13, 6, 6, 3, 3, 2, 2, 1, 1]
        assert chunk_sizes(3, 4) == [1, 1, 1]
        assert chunk_sizes(0, 2) == []

    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_every_cell_appears_once_in_run_list_order(self, workers):
        _, cells = _demo_cells(range(1, 42))
        tasks = shard_cells(cells, "demo/random_walk", workers=workers)
        assert [task.task_id for task in tasks] == [f"task-{n:05d}" for n in range(len(tasks))]
        assert [cell for task in tasks for cell in task.cells] == cells
        assert [len(task.cells) for task in tasks] == chunk_sizes(len(cells), workers)

    def test_without_forked_workers_each_task_holds_one_cell(self, tmp_path):
        _, cells = _demo_cells(range(1, 6))
        assert chunk_sizes(5, 0) == [1] * 5
        tasks = shard_cells(cells, "demo/random_walk", workers=0)
        assert [len(task.cells) for task in tasks] == [1] * 5

    def test_a_fixed_task_size_overrides_the_schedule(self):
        _, cells = _demo_cells(range(1, 8))
        tasks = shard_cells(cells, "demo/random_walk", task_size=3, workers=2)
        assert [len(task.cells) for task in tasks] == [3, 3, 1]

    @pytest.mark.parametrize(
        "flags", [["--jobs", "2"], ["--jobs", "2", "--task-size", "4"], ["--spool", "sp"],
                  ["--spool", "sp", "--task-size", "1"], ["--spool", "sp", "--workers", "3"]]
    )
    def test_every_spool_store_is_byte_identical_to_jobs_1(
        self, tmp_path, monkeypatch, capsys, flags
    ):
        monkeypatch.chdir(tmp_path)
        argv = ["run", "demo/random_walk", "--seeds", "13", "--sweep", "drift=0.0,0.3"]
        assert cli_main(argv + ["--jobs", "1", "--store", "serial.jsonl"]) == 0
        assert cli_main(argv + flags + ["--store", "spool.jsonl"]) == 0
        assert "backend=spool" in capsys.readouterr().out
        assert (tmp_path / "spool.jsonl").read_bytes() == (tmp_path / "serial.jsonl").read_bytes()

    def _cli_run(self, tmp_path, capsys, jobs, store):
        argv = ["run", "demo/random_walk", "--seeds", "9", "--spool", str(tmp_path / "sp"),
                "--jobs", jobs, "--store", str(tmp_path / store)]
        assert cli_main(argv) == 0
        assert f"backend=spool jobs={jobs}" in capsys.readouterr().out
        return (tmp_path / store).read_bytes(), read_events(Spool(tmp_path / "sp").events_path)

    def test_a_rerun_with_the_same_flags_resumes_and_claims_nothing(self, tmp_path, capsys):
        first, _ = self._cli_run(tmp_path, capsys, "2", "first.jsonl")
        again, events = self._cli_run(tmp_path, capsys, "2", "again.jsonl")
        assert first == again == _serial_store(tmp_path, range(1, 10)).read_bytes()
        kinds = [event["kind"] for event in events]
        (resumed,) = [event for event in events if event["kind"] == "campaign_resumed"]
        assert resumed["completed"] == len(chunk_sizes(9, 2))
        assert "task_claimed" not in kinds[kinds.index("campaign_resumed") :]

    def test_a_rerun_with_other_jobs_purges_and_republishes(self, tmp_path, capsys):
        first, _ = self._cli_run(tmp_path, capsys, "2", "first.jsonl")
        again, events = self._cli_run(tmp_path, capsys, "3", "again.jsonl")
        assert first == again == _serial_store(tmp_path, range(1, 10)).read_bytes()
        kinds = [event["kind"] for event in events]
        assert "campaign_resumed" not in kinds
        (start,) = [event for event in events if event["kind"] == "campaign_start"]
        assert start["tasks"] == len(chunk_sizes(9, 3))
        assert kinds.count("task_claimed") == len(chunk_sizes(9, 3))


# --------------------------------------------------------------------------
# Late shards after a lease reclaim
# --------------------------------------------------------------------------


class TestLateShards:
    """A worker stalled past its lease keeps running and writes its shard
    late.  With ``max_task_attempts=1`` the reclaim quarantines the task at
    once, so the coordinator counts its cells as failed before the real
    shard lands.  Whether the shard lands while the campaign runs or while
    its workers are joined, it heals the cell, in the store and in the
    merged spool alike.  One worker and a stall six leases long keep the
    order fixed."""

    def _run(self, tmp_path, monkeypatch, seeds):
        plan = FaultPlan(
            [
                FaultRule(
                    point="worker.cell", kind="sleep",
                    match={"task": "task-00000"}, args={"seconds": 3.0},
                )
            ]
        )
        monkeypatch.setenv(PLAN_ENV, str(plan.save(tmp_path / "plan.json")))
        backend = SpoolBackend(
            tmp_path / "spool",
            workers=1,
            task_size=1,
            lease_timeout=0.5,
            max_task_attempts=1,
            poll_interval=0.02,
            timeout=120.0,
        )
        store = tmp_path / "spool.jsonl"
        result = ParallelCampaignRunner(store=ResultStore(store), backend=backend).run(
            "demo/random_walk", seeds=seeds
        )
        spool = Spool(tmp_path / "spool")
        events = read_events(spool.events_path)
        assert {event["kind"] for event in events} <= EVENT_KINDS
        return result, store, spool, events

    def test_stalled_worker_loses_its_lease_and_its_late_shard_heals_the_cell_at_the_join(
        self, tmp_path, monkeypatch
    ):
        serial = _serial_store(tmp_path, [1])
        result, store, spool, events = self._run(tmp_path, monkeypatch, [1])
        # The quarantine completed the campaign ...
        kinds = [event["kind"] for event in events]
        assert kinds.index("task_quarantined") < kinds.index("campaign_complete")
        # ... and the real shard, landing while the worker was joined, heals
        # the cell: the store, the merged spool and the serial store agree.
        assert result.failures == 0
        assert serial.read_bytes() == store.read_bytes()
        merged = tmp_path / "merged.jsonl"
        merge_spool_results(spool, ResultStore(merged))
        assert serial.read_bytes() == merged.read_bytes()
        assert spool.pending_task_ids() == []

    def test_final_progress_counts_come_from_the_settled_records(
        self, tmp_path, monkeypatch
    ):
        """The quarantine counted the cell as failed while the campaign ran;
        both progress files must end with what the store holds."""
        result, store, spool, _ = self._run(tmp_path, monkeypatch, [1])
        assert result.failures == 0
        for path in (spool.progress_path, store.with_name(store.name + ".progress.json")):
            progress = read_progress(path)
            assert progress is not None and progress.complete, path
            assert (progress.done, progress.failed, progress.total) == (1, 0, 1), path

    def test_late_shard_heals_a_quarantined_cell_while_the_campaign_runs(
        self, tmp_path, monkeypatch
    ):
        serial = _serial_store(tmp_path, [1, 2])
        result, store, spool, events = self._run(tmp_path, monkeypatch, [1, 2])
        assert result.failures == 0
        assert serial.read_bytes() == store.read_bytes()
        kinds = [event["kind"] for event in events]
        assert "task_quarantined" in kinds


    def test_a_hand_started_workers_shard_after_the_coordinator_returned(
        self, tmp_path
    ):
        """With ``--workers 0`` nothing is joined: the coordinator settles
        and returns as soon as the quarantine fills the cell.  The stalled
        worker's shard lands later.  The store keeps the failure, ``merge``
        of the spool heals it, and a rerun on the spool adopts the shard."""
        serial = _serial_store(tmp_path, [1])
        spool_root = tmp_path / "spool"
        plan = FaultPlan(
            [FaultRule(point="worker.cell", kind="sleep", args={"seconds": 3.0})]
        )
        # Started first, so no thread is running when it forks; it polls
        # until the coordinator creates the spool.
        worker = multiprocessing.get_context("fork").Process(
            target=_stalled_worker, args=(spool_root, plan)
        )
        worker.start()

        def campaign(store):
            backend = SpoolBackend(
                spool_root, workers=0, lease_timeout=0.5, max_task_attempts=1,
                poll_interval=0.02, timeout=120.0,
            )
            return ParallelCampaignRunner(store=ResultStore(store), backend=backend).run(
                "demo/random_walk", seeds=[1]
            )

        store = tmp_path / "spool.jsonl"
        try:
            result = campaign(store)
        finally:
            worker.join(60.0)
        assert worker.exitcode == 0
        spool = Spool(spool_root)
        assert spool.verify_shard("task-00000")  # landed after the return
        # The store keeps the quarantine's failure ...
        assert [record.error_class for record in result.records] == ["TaskQuarantined"]
        assert [r.error_class for r in ResultStore(store).records()] == ["TaskQuarantined"]
        # ... merge of the spool heals it ...
        merged = tmp_path / "merged.jsonl"
        merge_spool_results(spool, ResultStore(merged))
        assert merged.read_bytes() == serial.read_bytes()
        # ... and a rerun on the spool adopts the late shard, executing nothing.
        rerun = campaign(store)
        assert rerun.failures == 0
        serial_records = ResultStore(serial).records()
        assert [r.to_json_dict() for r in ResultStore(store).records()] == [
            r.to_json_dict() for r in serial_records
        ]
        fresh = tmp_path / "fresh.jsonl"
        campaign(fresh)
        assert fresh.read_bytes() == serial.read_bytes()
        kinds = [event["kind"] for event in read_events(spool.events_path)]
        assert kinds.count("task_claimed") == 1
        assert kinds.count("campaign_resumed") == 2


def _stalled_worker(spool_root, plan):
    """A worker started by hand, whose every cell first sleeps ``plan``'s
    seconds, long past the spool's lease."""
    with armed(plan):
        run_worker(spool_root, poll_interval=0.02, worker_id="hand")


# --------------------------------------------------------------------------
# One settle rule: under seeded faults the store equals the merged spool
# --------------------------------------------------------------------------


def _seeded_faults(kind, seed, tasks):
    """One fault of ``kind`` aimed at a task the plan ``seed`` picks."""
    task = f"task-{random.Random(f'{kind}|{seed}').randrange(tasks):05d}"
    if kind == "kill":  # the first wave dies on it; replacements run clean
        return [FaultRule(point="worker.cell", kind="crash", match={"task": task},
                          max_generation=0)]
    if kind == "torn":
        return [FaultRule(point="spool.write_shard", kind="torn_write",
                          match={"task": task})]
    if kind == "stall":  # the lease ages out while the worker is alive
        return [
            FaultRule(point="spool.lease_heartbeat", kind="stall", match={"task": task},
                      times=None),
            FaultRule(point="worker.cell", kind="sleep", match={"task": task},
                      times=None, args={"seconds": 0.4}),
        ]
    if kind == "sleep":
        return [FaultRule(point="worker.cell", kind="sleep", match={"task": task},
                          args={"seconds": 0.3})]
    assert kind == "poison"  # crashes every attempt: quarantined with no shard
    return [FaultRule(point="worker.cell", kind="crash", match={"task": task},
                      times=None)]


class TestOneSettleRule:
    SEEDS = range(1, 7)
    TASK_SIZE = 2

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("kind", ["kill", "torn", "stall", "sleep", "poison"])
    def test_merged_spool_equals_the_store_under_seeded_faults(
        self, tmp_path, monkeypatch, capsys, kind, seed
    ):
        tasks = len(self.SEEDS) // self.TASK_SIZE
        plan = FaultPlan(_seeded_faults(kind, seed, tasks), seed=seed)
        monkeypatch.setenv(PLAN_ENV, str(plan.save(tmp_path / "plan.json")))
        spool_root = tmp_path / "spool"
        backend = SpoolBackend(
            spool_root,
            workers=2,
            task_size=self.TASK_SIZE,
            lease_timeout=0.5,
            max_task_attempts=2,
            max_respawns=4,
            poll_interval=0.02,
            timeout=120.0,
        )
        store = tmp_path / "spool.jsonl"
        result = ParallelCampaignRunner(store=ResultStore(store), backend=backend).run(
            "demo/random_walk", seeds=self.SEEDS
        )
        spool = Spool(spool_root)
        merged = tmp_path / "merged.jsonl"
        merge_spool_results(spool, ResultStore(merged))
        assert merged.read_bytes() == store.read_bytes()
        capsys.readouterr()
        for progress in (spool_root, store):  # the spool's and the store's
            assert cli_main(["status", str(progress), "--json"]) == 0
            document = json.loads(capsys.readouterr().out)
            states = {worker: beat["state"] for worker, beat in document["workers"].items()}
            assert "running" not in states.values(), (progress, states)
        if kind == "poison":
            failed = [record.error_class for record in result.records if not record.ok]
            assert failed == ["TaskQuarantined"] * self.TASK_SIZE
            assert len(spool.quarantined_task_ids()) == 1
        if not spool.quarantined_task_ids():
            serial = _serial_store(tmp_path, self.SEEDS)
            assert serial.read_bytes() == store.read_bytes()
            assert result.failures == 0


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
        assert spool.failed_attempts(task.task_id) == (1, {0})


# --------------------------------------------------------------------------
# status on spools written before plain pull
# --------------------------------------------------------------------------


class TestOldSpoolStatus:
    def test_status_renders_old_scheduler_and_health_fields(self, tmp_path, capsys):
        path = tmp_path / "progress.json"
        tracker = ProgressTracker(path, scenario="s", backend="spool")
        tracker.begin(total=2)
        tracker.set_workers(
            {
                "w1": {
                    "state": "running",
                    "tasks_completed": 3,
                    "shards_split": 2,
                    "health": 0.25,
                    "benched": True,
                    "cache_hits": 4,
                }
            }
        )
        tracker.record_record(ok=True)
        tracker.finish(complete=True)
        document = json.loads(path.read_text())
        document["scheduler"] = {"speculated": 2, "splits_observed": 1}
        document["backend_cells"] = {"scalar": 1, "vector": 1}
        path.write_text(json.dumps(document))
        progress = read_progress(path)
        assert progress is not None and progress.complete
        assert cli_main(["status", str(path)]) == 0
        out = capsys.readouterr().out
        assert "w1: running" in out and "3 tasks" in out
        assert "elastic" not in out and "BENCHED" not in out and "cache" not in out
        assert "cells:" not in out
        assert cli_main(["status", str(path), "--json"]) == 0
        assert "scheduler" not in json.loads(capsys.readouterr().out)

    def _old_event_log(self, tmp_path):
        lines = [
            {"kind": "task_claimed", "source": "w1", "ts": 1.0, "task": "task-00000"},
            {"kind": "task_speculated", "source": "coordinator", "ts": 2.0,
             "task": "task-00000~1"},
            {"kind": "shard_split", "source": "w2", "ts": 3.0, "task": "task-00001",
             "halves": ["task-00001-a", "task-00001-b"]},
            {"kind": "cache_hit", "source": "w1", "ts": 4.0, "task": "task-00002",
             "index": 2},
            {"kind": "vector_batch", "source": "vector", "ts": 5.0,
             "scenario": "tdma_convergence", "size": 8, "verified": True,
             "elapsed_s": 0.5},
            {"kind": "vector_evict", "source": "vector", "ts": 6.0,
             "scenario": "tdma_convergence", "seed": 5, "reason": "preflight"},
        ]
        (tmp_path / "events.jsonl").write_text(
            "".join(json.dumps(line) + "\n" for line in lines)
        )
        return lines

    def test_tail_passes_retired_event_kinds_through(self, tmp_path, capsys):
        lines = self._old_event_log(tmp_path)
        assert read_events(tmp_path / "events.jsonl") == lines
        assert cli_main(["tail", str(tmp_path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 6
        assert "task_speculated" in out[1] and "task-00000~1" in out[1]
        assert "shard_split" in out[2] and "task-00001" in out[2]
        assert "cache_hit" in out[3] and "task-00002" in out[3]
        assert "vector_batch" in out[4] and "tdma_convergence" in out[4]
        assert "vector_evict" in out[5] and "preflight" in out[5]

    def test_tail_rejects_a_retired_kind_as_a_filter(self, tmp_path, capsys):
        self._old_event_log(tmp_path)
        assert cli_main(["tail", str(tmp_path), "--kind", "task_speculated"]) == 2
        assert "unknown event kind(s): task_speculated" in capsys.readouterr().err
        assert cli_main(["tail", str(tmp_path), "--kind", "cache_hit"]) == 2
        assert "unknown event kind(s): cache_hit" in capsys.readouterr().err


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
        return spool, tasks

    def test_fsck_detects_damage_and_repair_heals_it(self, tmp_path):
        spool, tasks = self._damaged_spool(tmp_path)
        report = fsck_spool(spool)
        kinds = {issue["kind"] for issue in report["issues"]}
        assert "torn_shard" in kinds
        assert "orphaned_lease" in kinds
        assert report["ok"] is False

        repaired = fsck_spool(spool, repair=True)
        assert repaired["ok"] is True
        assert repaired["repaired"]
        clean = fsck_spool(spool)
        assert clean["issues"] == [] and clean["ok"] is True
        assert not (spool.results_dir / f"{tasks[1].task_id}.jsonl").exists()

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

    def test_fsck_finds_a_quarantine_whose_cells_another_shard_settles(self, tmp_path):
        spool = Spool(tmp_path / "spool", max_task_attempts=1)
        spool.initialise()
        _, cells = _demo_cells([1])
        (task,) = shard_cells(cells, "demo/random_walk", task_size=1)
        spool.publish_task(task)
        run_worker(spool.root, idle_timeout=0.05, poll_interval=0.01, max_tasks=1)
        # Another task's shard holds the cell (as an older spool's recovery
        # task could); the task itself is quarantined.
        (spool.results_dir / f"{task.task_id}.jsonl").rename(
            spool.results_dir / "task-r00000.jsonl"
        )
        spool.quarantine_dir.mkdir(parents=True, exist_ok=True)
        (spool.quarantine_dir / f"{task.task_id}.json").write_text(
            json.dumps(task.to_json_dict())
        )
        report = fsck_spool(spool)
        assert [issue["kind"] for issue in report["issues"]] == ["quarantine_completed"]
        (merged,) = merge_spool_results(spool)
        assert merged.ok

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

    def test_fsck_finds_nothing_on_a_drained_spool(self, tmp_path):
        spool = Spool(tmp_path / "spool")
        spool.initialise()
        _, cells = _demo_cells([1, 2])
        for task in shard_cells(cells, "demo/random_walk", task_size=1):
            spool.publish_task(task)
        run_worker(spool.root, idle_timeout=0.05, poll_interval=0.01, max_tasks=2)
        assert spool.completed_task_ids() == ["task-00000", "task-00001"]
        assert fsck_spool(spool) == {"issues": [], "repaired": [], "ok": True}

    def _expired_claim(self, tmp_path, max_task_attempts):
        spool = Spool(
            tmp_path / "spool", lease_timeout=5.0, max_task_attempts=max_task_attempts
        )
        spool.initialise()
        _, cells = _demo_cells([1])
        (task,) = shard_cells(cells, "demo/random_walk", task_size=1)
        spool.publish_task(task)
        claimed = spool.claim_next()
        stale = time.time() - 60.0
        os.utime(claimed.claimed_path, (stale, stale))
        report = fsck_spool(spool)
        assert [(issue["kind"], issue["target"]) for issue in report["issues"]] == [
            ("expired_lease", task.task_id)
        ]
        assert report["ok"] is False
        return spool, task

    def test_fsck_repair_requeues_an_expired_lease(self, tmp_path):
        spool, task = self._expired_claim(tmp_path, max_task_attempts=3)
        repaired = fsck_spool(spool, repair=True)
        assert repaired["repaired"] == [f"requeued expired claim {task.task_id}"]
        assert spool.pending_task_ids() == [task.task_id]
        assert spool.claimed_task_ids() == []
        assert spool.reclaim_count(task.task_id) == 1
        assert fsck_spool(spool)["issues"] == []

    def test_fsck_repair_quarantines_an_expired_lease_at_the_cap(self, tmp_path):
        spool, task = self._expired_claim(tmp_path, max_task_attempts=1)
        repaired = fsck_spool(spool, repair=True)
        assert repaired["repaired"] == [f"quarantined poison task {task.task_id}"]
        assert spool.quarantined_task_ids() == [task.task_id]
        assert spool.pending_task_ids() == [] and spool.claimed_task_ids() == []

    def test_fsck_flags_a_quarantine_with_too_few_recorded_attempts(self, tmp_path):
        spool = Spool(tmp_path / "spool", max_task_attempts=3)
        spool.initialise()
        _, cells = _demo_cells([1])
        (task,) = shard_cells(cells, "demo/random_walk", task_size=1)
        spool.quarantine_dir.mkdir(parents=True, exist_ok=True)
        (spool.quarantine_dir / f"{task.task_id}.json").write_text(
            json.dumps(task.to_json_dict())
        )
        report = fsck_spool(spool)
        (issue,) = report["issues"]
        assert issue["kind"] == "quarantine_ledger" and issue["target"] == task.task_id
        assert "0 recorded failed attempt(s)" in issue["detail"]
        assert report["ok"] is False

    def test_fsck_cli_rejects_a_non_spool_directory(self, tmp_path, capsys):
        assert cli_main(["fsck", str(tmp_path / "nowhere")]) == 1
        assert "not a campaign spool" in capsys.readouterr().out


# --------------------------------------------------------------------------
# Lost tasks come back under their own ids once the queue drains
# --------------------------------------------------------------------------


class TestLostTasks:
    SEEDS = range(1, 7)

    def _drain_log(self, caplog):
        return [r.getMessage() for r in caplog.records if "queue drained" in r.getMessage()]

    def test_a_task_file_removed_by_hand_is_republished_under_its_own_id(
        self, tmp_path, caplog
    ):
        serial = _serial_store(tmp_path, self.SEEDS)
        spool = Spool(tmp_path / "spool")
        backend = SpoolBackend(
            spool.root, workers=0, task_size=2, poll_interval=0.01, timeout=120.0
        )
        store = tmp_path / "spool.jsonl"
        outcome = {}
        coordinator = threading.Thread(
            target=lambda: outcome.setdefault(
                "result",
                ParallelCampaignRunner(store=ResultStore(store), backend=backend).run(
                    "demo/random_walk", seeds=self.SEEDS
                ),
            )
        )
        with caplog.at_level("WARNING", logger="repro.distributed.coordinator"):
            coordinator.start()
            try:
                deadline = time.monotonic() + 60.0
                while not (spool.tasks_dir / "task-00002.json").exists():
                    assert time.monotonic() < deadline, "tasks never published"
                    time.sleep(0.01)
                (spool.tasks_dir / "task-00001.json").unlink()
                run_worker(spool.root, poll_interval=0.01)
            finally:
                spool.mark_complete()  # unstick the coordinator on failure
                coordinator.join(timeout=60.0)
        assert outcome["result"].failures == 0
        assert serial.read_bytes() == store.read_bytes()
        assert spool.completed_task_ids() == ["task-00000", "task-00001", "task-00002"]
        (message,) = self._drain_log(caplog)
        assert "2 cell(s) unfilled; republished 1 task(s): task-00001" in message

    def test_a_resumed_campaign_reruns_its_missing_task_through_the_drain_rule(
        self, tmp_path, caplog
    ):
        def run(name):
            backend = SpoolBackend(
                tmp_path / "spool", workers=1, task_size=2, poll_interval=0.02,
                timeout=120.0,
            )
            store = tmp_path / name
            result = ParallelCampaignRunner(store=ResultStore(store), backend=backend).run(
                "demo/random_walk", seeds=self.SEEDS
            )
            assert result.failures == 0
            return store

        first = run("first.jsonl")
        spool = Spool(tmp_path / "spool")
        (spool.results_dir / "task-00001.jsonl").unlink()
        with caplog.at_level("WARNING", logger="repro.distributed.coordinator"):
            again = run("again.jsonl")
        assert first.read_bytes() == again.read_bytes()
        assert spool.completed_task_ids() == ["task-00000", "task-00001", "task-00002"]
        (resumed,) = [
            event for event in read_events(spool.events_path)
            if event["kind"] == "campaign_resumed"
        ]
        assert (resumed["completed"], resumed["torn_shards"]) == (2, 0)
        (message,) = self._drain_log(caplog)
        assert "republished 1 task(s): task-00001" in message


# --------------------------------------------------------------------------
# CLI validation
# --------------------------------------------------------------------------


class TestSpoolCli:
    @pytest.mark.parametrize("value", ["adaptive", "huge", "auto"])
    def test_task_size_is_an_integer(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(
                ["run", "demo/random_walk", "--seeds", "1", "--backend", "spool",
                 "--spool", "unused", "--task-size", value]
            )
        assert excinfo.value.code == 2
        assert "--task-size" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_task_size_must_be_positive(self, tmp_path, value, capsys):
        rc = cli_main(
            ["run", "demo/random_walk", "--seeds", "1", "--backend", "spool",
             "--spool", str(tmp_path / "spool"), "--task-size", value]
        )
        assert rc == 2
        assert "--task-size must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "spool").exists()

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
