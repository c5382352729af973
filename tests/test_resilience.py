"""Tests for ``repro.resilience`` and the crash-consistency it buys.

Covers the robustness acceptance criteria: deterministic fault plans,
retry/backoff/classification and the circuit breaker, sha256 shard
trailers detecting torn writes, poison-task quarantine (library + CLI),
cache repair-on-read and graceful degradation, chaos campaigns (worker
crashes + torn shards + corrupt cache objects) converging byte-identical
to the fault-free serial store, and coordinator kill/restart resume.
"""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from cache_util import garble_entry
from repro.distributed import (
    CacheIndex,
    Spool,
    SpoolBackend,
    SpoolDispatchError,
    SpoolTask,
    TornShardError,
    merge_spool_results,
    run_worker,
)
from repro.distributed.spool import shard_cells
from repro.experiments import (
    REGISTRY,
    ParallelCampaignRunner,
    ResultStore,
    RunRecord,
    RunSpec,
    ScenarioSpec,
    execute_run_with_retry,
)
from repro.experiments.cli import main as cli_main
from repro.experiments.registry import load_builtin_scenarios
from repro.experiments.spec import parameters_from_signature
from repro.observability.events import EVENT_KINDS, EventLog, read_events
from repro.observability.progress import ProgressTracker
from repro.resilience import (
    GENERATION_ENV,
    PLAN_ENV,
    CircuitBreaker,
    FaultPlan,
    FaultRule,
    InjectedFaultError,
    RetryPolicy,
    TransientError,
    armed,
    armed_plan,
    classify_error,
    inject,
)


def _demo_cells(seeds):
    spec = load_builtin_scenarios().get("demo/random_walk")
    run_specs = spec.runs(seeds=seeds)
    return spec, [(rs.params, rs.seed, rs.index) for rs in run_specs]


def _adhoc_spec(factory, name="adhoc"):
    return ScenarioSpec(
        name=name,
        factory=factory,
        parameters=parameters_from_signature(factory),
        metric_fields=("value",),
    )


def _no_sleep(_seconds):
    return None


# --------------------------------------------------------------------------
# Fault plans
# --------------------------------------------------------------------------


class TestFaultPlan:
    def test_unarmed_inject_is_a_noop(self):
        assert armed_plan() is None
        assert inject("spool.write_shard", task="task-00000") is None

    def test_rule_counters_at_every_times(self):
        rule = FaultRule(point="p", kind="stall", at=2, every=2, times=2)
        plan = FaultPlan([rule])
        fired = [plan.fire("p", {}) for _ in range(6)]
        assert [hit is not None for hit in fired] == [
            False, True, False, True, False, False,
        ]
        assert plan.fired_counts() == {"p:stall": 2}

    def test_rule_match_filters_on_context(self):
        plan = FaultPlan(
            [FaultRule(point="p", kind="stall", match={"task": "task-00001"}, times=None)]
        )
        assert plan.fire("p", {"task": "task-00000"}) is None
        assert plan.fire("p", {"task": "task-00001"}) is not None
        assert plan.fire("other", {"task": "task-00001"}) is None

    def test_generation_gating(self, monkeypatch):
        plan = FaultPlan([FaultRule(point="p", kind="stall", max_generation=0, times=None)])
        monkeypatch.setenv(GENERATION_ENV, "1")
        assert plan.fire("p", {}) is None
        monkeypatch.setenv(GENERATION_ENV, "0")
        assert plan.fire("p", {}) is not None

    def test_io_error_rule_raises_oserror_at_the_point(self):
        plan = FaultPlan([FaultRule(point="p", kind="io_error")])
        with armed(plan):
            with pytest.raises(InjectedFaultError) as excinfo:
                inject("p")
        assert isinstance(excinfo.value, OSError)
        assert excinfo.value.point == "p"

    def test_invalid_rules_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultRule(point="p", kind="explode")
        with pytest.raises(ValueError, match="at is 1-based"):
            FaultRule(point="p", kind="stall", at=0)

    def test_plan_serialisation_roundtrip(self, tmp_path):
        plan = FaultPlan(
            [
                FaultRule(point="worker.cell", kind="crash", at=3, max_generation=0),
                FaultRule(
                    point="spool.write_shard", kind="torn_write",
                    match={"task": "task-00002"}, args={"keep_bytes": 7},
                ),
            ],
            seed=42,
        )
        path = plan.save(tmp_path / "plan.json")
        loaded = FaultPlan.load(path)
        assert loaded.seed == 42
        assert loaded.rules == plan.rules

    def test_armed_context_restores_previous_plan(self):
        outer = FaultPlan([FaultRule(point="p", kind="stall", times=None)])
        inner = FaultPlan([])
        with armed(outer):
            with armed(inner):
                assert armed_plan() is inner
            assert armed_plan() is outer
        assert armed_plan() is None


# --------------------------------------------------------------------------
# Retry policy / circuit breaker
# --------------------------------------------------------------------------


class TestRetryPolicy:
    def test_classification(self):
        assert classify_error(OSError("disk")) == "transient"
        assert classify_error(TimeoutError()) == "transient"
        assert classify_error(TransientError("blip")) == "transient"
        assert classify_error(ValueError("bad params")) == "deterministic"
        assert classify_error(AssertionError()) == "deterministic"

    def test_should_retry_honours_attempt_cap_and_class(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry(OSError(), 1)
        assert policy.should_retry(OSError(), 2)
        assert not policy.should_retry(OSError(), 3)
        assert not policy.should_retry(ValueError(), 1)

    def test_delay_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=1.0, jitter=0.5)
        for attempt in (1, 2, 3, 6):
            raw = min(1.0, 0.1 * 2.0 ** (attempt - 1))
            delay = policy.delay(attempt, key="cell")
            assert delay == policy.delay(attempt, key="cell")  # seeded jitter
            assert 0.5 * raw <= delay <= 1.5 * raw
        # Different keys jitter differently (with overwhelming likelihood).
        assert policy.delay(1, key="a") != policy.delay(1, key="b")

    def test_call_retries_transient_and_reraises_deterministic(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientError("blip")
            return "ok"

        policy = RetryPolicy(max_attempts=3, base_delay=0.0)
        assert policy.call(flaky, key="k", sleep=_no_sleep) == "ok"
        assert calls["n"] == 3

        def broken():
            raise ValueError("always")

        with pytest.raises(ValueError):
            policy.call(broken, key="k", sleep=_no_sleep)

    def test_circuit_breaker_opens_and_gates_only_sleeps(self):
        breaker = CircuitBreaker(threshold=2)
        assert not breaker.record_failure("s")
        assert breaker.record_failure("s")  # newly opened
        assert not breaker.record_failure("s")  # already open
        assert breaker.is_open("s")
        assert breaker.open_keys() == ("s",)
        assert breaker.gate_delay("s", 1.5) == 0.0
        assert breaker.gate_delay("other", 1.5) == 1.5
        breaker.record_success("s")
        assert not breaker.is_open("s")


# --------------------------------------------------------------------------
# Retries around cell execution
# --------------------------------------------------------------------------


class TestExecuteRunWithRetry:
    def _flaky_spec(self, fail_times, exc_type=TransientError):
        calls = {"n": 0}

        def factory(seed, scale=1.0):
            calls["n"] += 1
            if calls["n"] <= fail_times:
                raise exc_type("blip")
            return {"value": seed * scale}

        return _adhoc_spec(factory), calls

    def test_transient_failure_retried_to_success(self):
        spec, calls = self._flaky_spec(2)
        record = execute_run_with_retry(
            spec,
            RunSpec(scenario="adhoc", params={"scale": 1.0}, seed=1, index=0),
            policy=RetryPolicy(max_attempts=3, base_delay=0.0),
            sleep=_no_sleep,
        )
        assert record.ok
        assert record.attempts == 3
        assert calls["n"] == 3

    def test_retried_ok_record_serialises_identically_to_first_try(self):
        flaky_spec, _ = self._flaky_spec(2)
        clean_spec, _ = self._flaky_spec(0)
        run_spec = RunSpec(scenario="adhoc", params={"scale": 1.0}, seed=1, index=0)
        policy = RetryPolicy(max_attempts=3, base_delay=0.0)
        retried = execute_run_with_retry(flaky_spec, run_spec, policy=policy, sleep=_no_sleep)
        clean = execute_run_with_retry(clean_spec, run_spec, policy=policy, sleep=_no_sleep)
        assert retried.attempts == 3 and clean.attempts == 1
        # The byte-identity invariant: attempt counts never serialise for
        # successful records.
        assert "attempts" not in retried.to_json_dict()
        assert retried.to_json_dict() == clean.to_json_dict()

    def test_deterministic_failure_is_not_retried(self):
        spec, calls = self._flaky_spec(5, exc_type=ValueError)
        record = execute_run_with_retry(
            spec,
            RunSpec(scenario="adhoc", params={"scale": 1.0}, seed=1, index=0),
            policy=RetryPolicy(max_attempts=3, base_delay=0.0),
            sleep=_no_sleep,
        )
        assert not record.ok
        assert calls["n"] == 1
        payload = record.to_json_dict()
        assert payload["attempts"] == 1
        assert payload["error_class"] == "ValueError"

    def test_exhausted_transient_failure_carries_attempts_and_class(self):
        spec, calls = self._flaky_spec(5)
        record = execute_run_with_retry(
            spec,
            RunSpec(scenario="adhoc", params={"scale": 1.0}, seed=1, index=0),
            policy=RetryPolicy(max_attempts=3, base_delay=0.0),
            sleep=_no_sleep,
        )
        assert not record.ok
        assert calls["n"] == 3
        assert record.attempts == 3
        assert record.error_class == "TransientError"
        assert record.exception is None  # stripped before crossing boundaries
        roundtripped = RunRecord.from_json_dict(record.to_json_dict())
        assert roundtripped.attempts == 3
        assert roundtripped.error_class == "TransientError"

    def test_failed_records_identical_across_backends(self, tmp_path, monkeypatch):
        """A failing cell produces the same stored bytes serial or parallel."""

        def factory(seed, scale=1.0):
            raise ValueError(f"broken for seed {seed}")

        # Registered by name, so the forked spool workers resolve it.
        spec = _adhoc_spec(factory, name="probe/broken")
        monkeypatch.setitem(REGISTRY._specs, spec.name, spec)
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        ParallelCampaignRunner(store=ResultStore(serial)).run("probe/broken", seeds=[1, 2])
        backend = SpoolBackend(tmp_path / "spool", workers=2, timeout=120.0)
        ParallelCampaignRunner(store=ResultStore(parallel), backend=backend).run(
            "probe/broken", seeds=[1, 2]
        )
        assert serial.read_bytes() == parallel.read_bytes()
        record = ResultStore(serial).records()[0]
        assert record.attempts == 1
        assert record.error_class == "ValueError"


# --------------------------------------------------------------------------
# Shard trailers / torn-write detection
# --------------------------------------------------------------------------


class TestShardTrailers:
    def _spool_with_shard(self, tmp_path):
        spool = Spool(tmp_path / "spool")
        spool.initialise()
        record = RunRecord(scenario="s", params={"a": 1}, seed=1, metrics={"m": 2.0})
        spool.write_result_shard("task-00000", [(0, record)])
        return spool

    def test_truncated_shard_is_detected(self, tmp_path):
        spool = self._spool_with_shard(tmp_path)
        shard = spool.results_dir / "task-00000.jsonl"
        content = shard.read_text()
        shard.write_text(content[: len(content) // 2])
        assert not spool.verify_shard("task-00000")
        with pytest.raises(TornShardError, match="task-00000"):
            spool.read_result_shard("task-00000")
        with pytest.raises(SpoolDispatchError, match="torn result shard"):
            merge_spool_results(spool)

    def test_missing_trailer_is_detected(self, tmp_path):
        spool = self._spool_with_shard(tmp_path)
        shard = spool.results_dir / "task-00000.jsonl"
        lines = shard.read_text().splitlines()
        shard.write_text(lines[0] + "\n")  # records only, trailer dropped
        with pytest.raises(TornShardError, match="missing sha256 trailer"):
            spool.read_result_shard("task-00000")

    def test_injected_torn_write_lands_a_detectable_shard(self, tmp_path):
        spool = Spool(tmp_path / "spool")
        spool.initialise()
        record = RunRecord(scenario="s", params={}, seed=1, metrics={"m": 1.0})
        plan = FaultPlan([FaultRule(point="spool.write_shard", kind="torn_write")])
        with armed(plan):
            spool.write_result_shard("task-00000", [(0, record)])
        assert plan.fired_counts() == {"spool.write_shard:torn_write": 1}
        assert not spool.verify_shard("task-00000")
        # The same write without the fault is clean.
        spool.write_result_shard("task-00000", [(0, record)])
        assert spool.verify_shard("task-00000")

    def test_reclaim_drops_torn_shard_and_requeues(self, tmp_path):
        """A worker that died mid-shard-write (claim held, torn shard on
        disk) must have its task re-queued, not settled."""
        spool = Spool(tmp_path / "spool", lease_timeout=5.0)
        spool.initialise()
        _, cells = _demo_cells([1])
        (task,) = shard_cells(cells, "demo/random_walk", task_size=1)
        spool.publish_task(task)
        claimed = spool.claim_next()
        plan = FaultPlan([FaultRule(point="spool.write_shard", kind="torn_write")])
        with armed(plan):
            spool.write_result_shard(task.task_id, [(0, RunRecord(scenario="s", params={}, seed=1))])
        stale = time.time() - 60.0
        os.utime(claimed.claimed_path, (stale, stale))
        assert spool.reclaim_expired() == {task.task_id: "requeued"}
        assert spool.pending_task_ids() == [task.task_id]
        assert spool.completed_task_ids() == []

    def test_lease_heartbeat_stall_directive(self, tmp_path):
        spool = Spool(tmp_path / "spool")
        spool.initialise()
        _, cells = _demo_cells([1])
        (task,) = shard_cells(cells, "demo/random_walk", task_size=1)
        spool.publish_task(task)
        claimed = spool.claim_next()
        stale = time.time() - 30.0
        os.utime(claimed.claimed_path, (stale, stale))
        plan = FaultPlan([FaultRule(point="spool.lease_heartbeat", kind="stall", times=None)])
        with armed(plan):
            spool.heartbeat(claimed)
        assert claimed.claimed_path.stat().st_mtime == pytest.approx(stale)
        spool.heartbeat(claimed)  # disarmed: renewal lands
        assert claimed.claimed_path.stat().st_mtime > stale + 1.0


# --------------------------------------------------------------------------
# Event-log degradation
# --------------------------------------------------------------------------


class TestObservabilityDegradation:
    def test_event_log_write_failures_are_counted_drops(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl", source="w1")
        plan = FaultPlan([FaultRule(point="events.emit", kind="io_error", times=None)])
        with armed(plan):
            assert log.emit("worker_idle") is None
            assert log.emit("worker_idle") is None
        assert log.dropped == 2
        assert log.emit("worker_idle") is not None  # disarmed: log recovers
        assert len(read_events(log.path)) == 1

    def test_worker_exit_carries_drop_count_only_when_nonzero(self, tmp_path):
        spool = Spool(tmp_path / "spool")
        spool.initialise()
        run_worker(spool.root, idle_timeout=0.01, poll_interval=0.01, worker_id="clean")
        plan = FaultPlan(
            [FaultRule(point="events.emit", kind="io_error", match={"kind": "worker_idle"})]
        )
        with armed(plan):
            run_worker(spool.root, idle_timeout=0.01, poll_interval=0.01, worker_id="lossy")
        exits = {e["source"]: e for e in read_events(spool.events_path, kinds={"worker_exit"})}
        assert "events_dropped" not in exits["clean"]
        assert exits["lossy"]["events_dropped"] == 1

    def test_status_cli_surfaces_dropped_events(self, tmp_path, capsys):
        path = tmp_path / "progress.json"
        tracker = ProgressTracker(path, scenario="s", backend="spool")
        tracker.begin(total=1, reused=0)
        tracker.set_workers(
            {"w1": {"state": "running", "tasks_completed": 1, "events_dropped": 3}}
        )
        tracker.record_record(ok=True)
        tracker.finish(complete=True)
        assert cli_main(["status", str(path)]) == 0
        captured = capsys.readouterr()
        assert "3 dropped event(s)" in captured.out
        assert "3 event(s) dropped" in captured.err


# --------------------------------------------------------------------------
# Quarantine
# --------------------------------------------------------------------------


class TestQuarantine:
    def _spool_with_task(self, tmp_path, max_task_attempts=3):
        spool = Spool(tmp_path / "spool", max_task_attempts=max_task_attempts)
        spool.initialise()
        _, cells = _demo_cells([1])
        (task,) = shard_cells(cells, "demo/random_walk", task_size=1)
        spool.publish_task(task)
        return spool, task

    def test_repeated_requeues_quarantine_the_task(self, tmp_path):
        spool, task = self._spool_with_task(tmp_path, max_task_attempts=3)
        outcomes = []
        for _ in range(3):
            claimed = spool.claim_next()
            assert claimed is not None
            outcomes.append(spool.requeue(claimed))
        assert outcomes == ["requeued", "requeued", "quarantined"]
        assert spool.quarantined_task_ids() == [task.task_id]
        assert spool.pending_task_ids() == []
        assert spool.read_quarantined_task(task.task_id) == task

    def test_quarantine_retry_resets_the_attempt_ledger(self, tmp_path):
        spool, task = self._spool_with_task(tmp_path, max_task_attempts=2)
        for _ in range(2):
            spool.requeue(spool.claim_next())
        assert spool.quarantined_task_ids() == [task.task_id]
        assert spool.quarantine_retry(task.task_id)
        assert spool.pending_task_ids() == [task.task_id]
        assert spool.reclaim_count(task.task_id) == 0
        # The reset counter means the task gets its full budget again.
        assert spool.requeue(spool.claim_next()) == "requeued"

    def test_workers_adopt_published_max_task_attempts(self, tmp_path):
        coordinator_spool = Spool(tmp_path / "spool", max_task_attempts=7)
        coordinator_spool.initialise()
        coordinator_spool.write_campaign_metadata({})
        worker_spool = Spool(tmp_path / "spool")  # default 3 view
        worker_spool.refresh_lease_timeout()
        assert worker_spool.max_task_attempts == 7

    def test_worker_quarantines_task_with_failing_shard_writes(self, tmp_path):
        """Persistent spool I/O failure on one worker must retire the task
        through the quarantine ledger instead of looping forever."""
        spool, task = self._spool_with_task(tmp_path, max_task_attempts=3)
        plan = FaultPlan(
            [FaultRule(point="spool.write_shard", kind="io_error", times=None)]
        )
        with armed(plan):
            stats = run_worker(spool.root, idle_timeout=0.1, poll_interval=0.01)
        assert stats.tasks_completed == 0
        assert spool.quarantined_task_ids() == [task.task_id]
        kinds = [event["kind"] for event in read_events(spool.events_path)]
        assert "task_quarantined" in kinds
        assert set(kinds) <= EVENT_KINDS

    def test_coordinator_absorbs_quarantined_task_as_failed_records(self, tmp_path):
        """A poison task must not stall the campaign: its cells become
        failed records carrying the attempt count and TaskQuarantined."""
        spool_root = tmp_path / "spool"
        backend = SpoolBackend(
            spool_root, workers=0, poll_interval=0.01, timeout=60.0, max_task_attempts=2
        )
        saboteur_spool = Spool(spool_root, max_task_attempts=2)
        stop = threading.Event()

        def sabotage():
            deadline = time.time() + 30.0
            while not stop.is_set() and time.time() < deadline:
                claimed = saboteur_spool.claim_next()
                if claimed is not None and saboteur_spool.requeue(claimed) == "quarantined":
                    return
                time.sleep(0.01)

        thread = threading.Thread(target=sabotage)
        thread.start()
        try:
            result = ParallelCampaignRunner(backend=backend).run(
                "demo/random_walk", seeds=[1]
            )
        finally:
            stop.set()
            thread.join(timeout=10.0)
        assert result.failures == 1
        (record,) = result.records
        assert record.error_class == "TaskQuarantined"
        assert record.attempts == 2
        assert "quarantined after 2 failed execution attempt(s)" in record.error
        kinds = [event["kind"] for event in read_events(Spool(spool_root).events_path)]
        assert "task_quarantined" in kinds

    def test_one_quarantine_is_logged_once_whoever_sees_it(self, tmp_path, monkeypatch):
        """Every worker that claims task-00001 dies on it; the second death
        quarantines it.  Only the process whose rename retired the task logs
        the event, not each worker that later finds it, nor the coordinator."""
        plan = FaultPlan(
            [
                FaultRule(
                    point="worker.cell", kind="crash", match={"task": "task-00001"}, times=None
                )
            ]
        )
        monkeypatch.setenv(PLAN_ENV, str(plan.save(tmp_path / "plan.json")))
        backend = SpoolBackend(
            tmp_path / "spool",
            workers=2,
            task_size=1,
            lease_timeout=0.5,
            max_task_attempts=2,
            max_respawns=2,
            poll_interval=0.02,
            timeout=120.0,
        )
        result = ParallelCampaignRunner(backend=backend).run(
            "demo/random_walk", seeds=[1, 2, 3, 4]
        )
        assert [record.error_class for record in result.failed_records] == ["TaskQuarantined"]
        events = read_events(Spool(tmp_path / "spool").events_path)
        quarantined = [event for event in events if event["kind"] == "task_quarantined"]
        assert [event["task"] for event in quarantined] == ["task-00001"]
        assert quarantined[0]["attempts"] == 2

    def test_quarantine_cli_list_and_retry(self, tmp_path, capsys):
        spool, task = self._spool_with_task(tmp_path, max_task_attempts=2)
        for _ in range(2):
            spool.requeue(spool.claim_next())
        spool_arg = str(spool.root)
        assert cli_main(["quarantine", "list", spool_arg]) == 0
        out = capsys.readouterr().out
        assert task.task_id in out
        assert "demo/random_walk" in out
        assert cli_main(["quarantine", "retry", spool_arg]) == 0
        assert task.task_id in capsys.readouterr().out
        assert spool.quarantined_task_ids() == []
        assert spool.pending_task_ids() == [task.task_id]
        assert cli_main(["quarantine", "list", spool_arg]) == 0
        assert "empty" in capsys.readouterr().out
        assert cli_main(["quarantine", "retry", spool_arg, "task-99999"]) == 2
        assert "not quarantined" in capsys.readouterr().err


# --------------------------------------------------------------------------
# Cache resilience
# --------------------------------------------------------------------------


class TestCacheResilience:
    def test_corrupt_entry_repaired_on_read(self, tmp_path):
        cache = CacheIndex(tmp_path / "cache")
        key = "a" * 64
        record = RunRecord(scenario="s", params={}, seed=1, metrics={"m": 1.0})
        cache.put(key, record)
        garble_entry(tmp_path / "cache", key)
        reader = CacheIndex(tmp_path / "cache")
        assert reader.get(key) is None
        assert reader.repairs == 1
        assert key not in CacheIndex(tmp_path / "cache").keys()  # dropped so a re-put heals
        assert reader.put(key, record)
        assert reader.get(key) == record
        assert CacheIndex(tmp_path / "cache").get(key) == record
        assert reader.session_stats()["repairs"] == 1

    def test_injected_corrupt_put_is_repaired_by_next_reader(self, tmp_path):
        cache = CacheIndex(tmp_path / "cache")
        key = "b" * 64
        record = RunRecord(scenario="s", params={}, seed=1, metrics={"m": 1.0})
        plan = FaultPlan([FaultRule(point="cache.put", kind="corrupt")])
        with armed(plan):
            assert cache.put(key, record)
        reader = CacheIndex(tmp_path / "cache")
        assert reader.get(key) is None
        assert reader.repairs == 1
        fresh = CacheIndex(tmp_path / "cache")
        assert key not in fresh.keys()
        assert fresh.get(key) is None and fresh.repairs == 0

    def test_unreachable_cache_degrades_with_one_warning(self, tmp_path, caplog):
        cache = CacheIndex(tmp_path / "cache")
        key = "c" * 64
        record = RunRecord(scenario="s", params={}, seed=1, metrics={"m": 1.0})
        plan = FaultPlan([FaultRule(point="cache.get", kind="io_error", times=None)])
        with caplog.at_level("WARNING", logger="repro.distributed.cache"):
            with armed(plan):
                assert cache.get(key) is None
                assert cache.get(key) is None
        assert cache.degraded
        warnings = [r for r in caplog.records if "continuing uncached" in r.message]
        assert len(warnings) == 1  # warn once, not per lookup
        # Every subsequent operation is a silent no-op.
        assert not cache.put(key, record)
        assert cache.get(key) is None
        assert cache.flush_stats() is False

    def test_degraded_cache_does_not_fail_the_campaign(self, tmp_path):
        cache = CacheIndex(tmp_path / "cache")
        plan = FaultPlan([FaultRule(point="cache.put", kind="io_error", times=None)])
        with armed(plan):
            result = ParallelCampaignRunner(cache=cache).run(
                "demo/random_walk", seeds=[1, 2]
            )
        assert result.failures == 0
        assert cache.degraded
        assert len(cache) == 0  # nothing cached, nothing crashed

    def test_lifetime_stats_accumulate_repairs(self, tmp_path):
        cache = CacheIndex(tmp_path / "cache")
        key = "d" * 64
        cache.put(key, RunRecord(scenario="s", params={}, seed=1, metrics={"m": 1.0}))
        garble_entry(tmp_path / "cache", key)
        reader = CacheIndex(tmp_path / "cache")
        reader.get(key)
        assert reader.flush_stats()
        assert CacheIndex(tmp_path / "cache").lifetime_stats()["repairs"] == 1


# --------------------------------------------------------------------------
# Chaos campaigns (the tentpole acceptance)
# --------------------------------------------------------------------------


def _subprocess_env():
    """Environment for CLI subprocesses: repro importable, no armed plan."""
    import repro

    env = dict(os.environ)
    package_root = str(Path(repro.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH")
    if package_root not in (existing or "").split(os.pathsep):
        env["PYTHONPATH"] = package_root + (os.pathsep + existing if existing else "")
    env.pop(PLAN_ENV, None)
    env.pop(GENERATION_ENV, None)
    return env


class TestChaosCampaigns:
    def test_chaos_campaign_converges_byte_identical_to_serial(self, tmp_path, monkeypatch):
        """Worker crashes + torn shards: the spool campaign must converge to the fault-free jobs=1 store, byte for
        byte, with an empty quarantine."""
        serial_path = tmp_path / "serial.jsonl"
        ParallelCampaignRunner(store=ResultStore(serial_path)).run(
            "demo/random_walk", seeds=range(1, 7)
        )
        plan = FaultPlan(
            [
                # Each first-wave worker dies on its 3rd cell (SIGKILL-style).
                FaultRule(point="worker.cell", kind="crash", at=3, max_generation=0),
                # ... and tears its 2nd shard write before that.
                FaultRule(point="spool.write_shard", kind="torn_write", at=2, max_generation=0),
            ]
        )
        plan_path = plan.save(tmp_path / "plan.json")
        # Spawned workers re-arm the plan from the environment when they
        # start; this test process stays disarmed (faults was imported
        # without it).
        monkeypatch.setenv(PLAN_ENV, str(plan_path))
        backend = SpoolBackend(
            tmp_path / "spool",
            workers=2,
            task_size=1,
            # Generous lease: on a loaded machine a short lease can expire
            # under a live worker, and 3 spurious reclaims would quarantine.
            lease_timeout=5.0,
            poll_interval=0.02,
            timeout=300.0,
            max_respawns=4,
        )
        chaos_path = tmp_path / "chaos.jsonl"
        result = ParallelCampaignRunner(store=ResultStore(chaos_path), backend=backend).run(
            "demo/random_walk", seeds=range(1, 7)
        )
        assert result.failures == 0
        assert serial_path.read_bytes() == chaos_path.read_bytes()
        spool = Spool(tmp_path / "spool")
        assert spool.quarantined_task_ids() == []
        kinds = {event["kind"] for event in read_events(spool.events_path)}
        assert kinds <= EVENT_KINDS
        # The faults actually bit: at least one first-wave worker died (6
        # tasks over 2 workers guarantees a 3rd claim) and, since the crash
        # rule fires only after the torn 2nd write, a torn shard landed too.
        assert "worker_dead" in kinds
        assert "worker_respawn" in kinds
        assert "shard_torn" in kinds

    def test_coordinator_crash_and_restart_converges(self, tmp_path):
        """Kill the coordinator mid-campaign (os._exit via injected crash),
        restart it on the same spool: it resumes instead of purging, and the
        merged store is byte-identical to the fault-free serial run."""
        # Poll 1 runs before the worker has finished spawning, so a crash at
        # poll 2 is guaranteed to fire before the campaign can complete.
        plan = FaultPlan([FaultRule(point="coordinator.poll", kind="crash", at=2)])
        plan_path = plan.save(tmp_path / "plan.json")
        spool_root = tmp_path / "spool"
        command = [
            sys.executable, "-m", "repro.experiments", "run", "demo/random_walk",
            "--seeds", "6", "--backend", "spool", "--spool", str(spool_root),
            "--workers", "1", "--task-size", "1", "--timeout", "120",
        ]
        env = _subprocess_env()
        # Redirect to files rather than pipes: the worker orphaned by the
        # coordinator's os._exit inherits stdio, and capture_output would
        # block on pipe EOF until that worker dies.
        first_log = (tmp_path / "first.log").open("w")
        second_log = tmp_path / "second.log"
        try:
            with first_log:
                first = subprocess.run(
                    command + ["--faults", str(plan_path)],
                    env=env, stdout=first_log, stderr=subprocess.STDOUT, timeout=300,
                )
            assert first.returncode == 137, (tmp_path / "first.log").read_text()
            with second_log.open("w") as handle:
                second = subprocess.run(
                    command, env=env, stdout=handle, stderr=subprocess.STDOUT, timeout=300
                )
            assert second.returncode == 0, second_log.read_text()
        finally:
            # Release any worker orphaned by the injected coordinator crash.
            spool_root.mkdir(parents=True, exist_ok=True)
            Spool(spool_root).mark_complete()
        kinds = [event["kind"] for event in read_events(Spool(spool_root).events_path)]
        assert "campaign_resumed" in kinds
        merged_path = tmp_path / "merged.jsonl"
        merge_spool_results(Spool(spool_root), ResultStore(merged_path))
        serial_path = tmp_path / "serial.jsonl"
        ParallelCampaignRunner(store=ResultStore(serial_path)).run(
            "demo/random_walk", seeds=range(1, 7)
        )
        assert serial_path.read_bytes() == merged_path.read_bytes()

    def test_resume_is_rejected_for_a_different_campaign(self, tmp_path):
        """A spool holding a *different* campaign is purged, not resumed."""
        backend = SpoolBackend(tmp_path / "spool", workers=1, timeout=120.0)
        ParallelCampaignRunner(backend=backend).run("demo/random_walk", seeds=[1, 2])
        result = ParallelCampaignRunner(backend=backend).run(
            "demo/random_walk", seeds=[3, 4]
        )
        assert result.failures == 0
        assert [record.seed for record in result.records] == [3, 4]
        kinds = [event["kind"] for event in read_events(Spool(tmp_path / "spool").events_path)]
        assert "campaign_resumed" not in kinds  # initialise() purged the log


# --------------------------------------------------------------------------
# CLI surface
# --------------------------------------------------------------------------


class TestResilienceCli:
    def test_run_rejects_bad_retries_and_missing_plan(self, tmp_path, capsys):
        assert cli_main(["run", "demo/random_walk", "--seeds", "1", "--retries", "0"]) == 2
        assert "--retries" in capsys.readouterr().err
        rc = cli_main(
            ["run", "demo/random_walk", "--seeds", "1",
             "--faults", str(tmp_path / "missing.json")]
        )
        assert rc == 2
        assert "could not load fault plan" in capsys.readouterr().err

    def test_max_respawns_requires_spool_backend(self, capsys):
        rc = cli_main(["run", "demo/random_walk", "--seeds", "1", "--max-respawns", "2"])
        assert rc == 2
        assert "--max-respawns" in capsys.readouterr().err

    def test_run_with_faults_arms_and_retries_transients(self, tmp_path, capsys):
        """An armed io_error plan on run.cell makes the first attempt of the
        first cell fail; with --retries 3 the campaign still succeeds."""
        plan = FaultPlan([FaultRule(point="run.cell", kind="io_error", at=1, times=2)])
        plan_path = plan.save(tmp_path / "plan.json")
        from repro.resilience import disarm

        try:
            rc = cli_main(
                ["run", "demo/random_walk", "--seeds", "2",
                 "--faults", str(plan_path), "--retries", "3"]
            )
        finally:
            disarm()  # _arm_fault_plan arms process-wide; clean up for peers
        assert rc == 0
        assert "0 failed" in capsys.readouterr().out

    def test_report_shows_attempts_and_error_class_for_failures(self, tmp_path, capsys):
        store_path = tmp_path / "store.jsonl"
        store = ResultStore(store_path)
        store.add_many(
            [
                RunRecord(scenario="demo/random_walk", params={"steps": 100}, seed=1,
                          metrics={"final_position": 1.0}),
                RunRecord(scenario="demo/random_walk", params={"steps": 100}, seed=2,
                          status="failed",
                          error="task task-00001 quarantined after 3 failed execution attempt(s)",
                          error_class="TaskQuarantined", attempts=3),
            ]
        )
        assert cli_main(["report", str(store_path)]) == 0
        out = capsys.readouterr().out
        assert "failed runs" in out
        assert "TaskQuarantined" in out
        assert "attempts" in out
