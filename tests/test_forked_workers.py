"""Spool workers forked from the coordinator start from a new process's
state: the coordinator's in-process fault plan, its rule counters and its
open trace span never leak into a worker.  They start warm — the scenario
factory's imports are done once, in the coordinator, before the fork — and
both sides wake on pipe events rather than on the poll interval.  Also: a
spool campaign with a result cache writes each executed cell to it once."""

import json
import multiprocessing
import os
import sys
import time

import pytest

from repro.distributed import CacheIndex, Spool, SpoolBackend, SpoolDispatchError
from repro.experiments import ParallelCampaignRunner, ResultStore
from repro.experiments.registry import REGISTRY
from repro.experiments.spec import ScenarioSpec, parameters_from_signature
from repro.experiments.cli import main as cli_main
from repro.observability.events import read_events
from repro.observability.progress import read_progress
from repro.observability.trace import disable_tracing, enable_tracing, read_trace_file
from repro.resilience import PLAN_ENV, FaultPlan, FaultRule, InjectedFaultError, armed, inject

SEEDS = [1, 2, 3, 4]


def _serial_store(tmp_path, seeds=SEEDS):
    path = tmp_path / "serial.jsonl"
    ParallelCampaignRunner(store=ResultStore(path)).run("demo/random_walk", seeds=seeds)
    return path


def _spool_campaign(tmp_path, **backend_kwargs):
    """A 2-worker spool campaign over SEEDS; returns (result, store path, spool)."""
    options = {"workers": 2, "poll_interval": 0.01, "timeout": 120.0}
    options.update(backend_kwargs)
    backend = SpoolBackend(tmp_path / "spool", **options)
    store = tmp_path / "spooled.jsonl"
    result = ParallelCampaignRunner(store=ResultStore(store), backend=backend).run(
        "demo/random_walk", seeds=SEEDS
    )
    return result, store, Spool(tmp_path / "spool")


class TestForkedWorkerState:
    def test_a_plan_armed_only_in_the_coordinator_never_fires_in_a_worker(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv(PLAN_ENV, raising=False)
        serial = _serial_store(tmp_path)
        plan = FaultPlan([FaultRule(point="worker.cell", kind="crash", times=None)])
        with armed(plan):
            result, store, spool = _spool_campaign(tmp_path)
        assert result.failures == 0
        assert store.read_bytes() == serial.read_bytes()
        assert read_events(spool.events_path, kinds={"worker_dead"}) == []
        assert len(read_events(spool.events_path, kinds={"worker_exit"})) == 2
        assert plan.fired_counts() == {}

    def test_an_exported_rule_fires_in_each_worker_with_fresh_counters(
        self, tmp_path, monkeypatch
    ):
        """``at: 1`` (fire once) on each worker's own first matching call,
        even though the coordinator spent the rule before forking them."""
        plan = FaultPlan(
            [FaultRule(point="events.emit", kind="io_error", match={"kind": "worker_start"})]
        )
        monkeypatch.setenv(PLAN_ENV, str(plan.save(tmp_path / "plan.json")))
        with armed(plan):
            with pytest.raises(InjectedFaultError):
                inject("events.emit", kind="worker_start")
            assert inject("events.emit", kind="worker_start") is None  # spent here
            result, _, spool = _spool_campaign(tmp_path)
        assert result.failures == 0
        # Each worker dropped its own worker_start line and nothing else.
        assert read_events(spool.events_path, kinds={"worker_start"}) == []
        exits = read_events(spool.events_path, kinds={"worker_exit"})
        assert [event["events_dropped"] for event in exits] == [1, 1]
        # The coordinator folds each worker from its events, worker_start or not.
        workers = read_progress(spool.progress_path).workers
        assert sorted(workers) == sorted(event["source"] for event in exits)
        assert [worker["events_dropped"] for worker in workers.values()] == [1, 1]
        assert {worker["state"] for worker in workers.values()} == {"exited"}

    def test_a_respawned_worker_runs_at_generation_one(self, tmp_path, monkeypatch):
        plan = FaultPlan(
            [
                # Generation 0 dies before it claims anything ...
                FaultRule(point="worker.start", kind="crash", max_generation=0),
                # ... generation 1 survives and drops its worker_start line,
                # which a generation-2 worker would not.
                FaultRule(
                    point="events.emit", kind="io_error",
                    match={"kind": "worker_start"}, max_generation=1,
                ),
            ]
        )
        monkeypatch.setenv(PLAN_ENV, str(plan.save(tmp_path / "plan.json")))
        serial = _serial_store(tmp_path)
        result, store, spool = _spool_campaign(tmp_path, workers=1, max_respawns=1)
        assert result.failures == 0
        assert store.read_bytes() == serial.read_bytes()
        dead = read_events(spool.events_path, kinds={"worker_dead"})
        assert [event["returncode"] for event in dead] == [137]
        respawns = read_events(spool.events_path, kinds={"worker_respawn"})
        assert [event["generation"] for event in respawns] == [1]
        assert read_events(spool.events_path, kinds={"worker_start"}) == []
        exits = read_events(spool.events_path, kinds={"worker_exit"})
        assert [event["source"] for event in exits] == [f"worker-{respawns[0]['pid']}"]

    def test_workers_trace_into_their_own_files_without_coordinator_spans(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv(PLAN_ENV, raising=False)
        spool_root = tmp_path / "spool"
        enable_tracing(spool_root, source="coordinator")
        try:
            result, _, _ = _spool_campaign(tmp_path)
        finally:
            disable_tracing()
        assert result.failures == 0
        coordinator = read_trace_file(spool_root / f"trace-{os.getpid()}.jsonl")
        campaign_spans = {span["span"] for span in coordinator if span["name"] == "campaign"}
        assert campaign_spans
        worker_files = [
            path
            for path in spool_root.glob("trace-*.jsonl")
            if path.name != f"trace-{os.getpid()}.jsonl"
        ]
        assert worker_files
        cells = 0
        for path in worker_files:
            pid = int(path.stem.split("-", 1)[1])
            spans = read_trace_file(path)
            assert spans
            for span in spans:
                # Re-anchored on the worker's own pid: its ids, its lane.
                assert span["pid"] == pid
                assert span["span"].startswith(f"{pid:x}-")
                assert span.get("tid") != "coordinator"
                assert span["name"] not in {"campaign", "publish", "ingest"}
                assert span["parent"] not in campaign_spans
                cells += span["name"] == "cell"
        assert cells == len(SEEDS)


PROBE_MODULE = "forked_worker_import_probe"


def _probe_factory(seed):
    import forked_worker_import_probe  # noqa: F401 — records the importing pid

    return {"value": float(seed)}


class TestWarmStartAndWakeUp:
    def test_waking_does_not_depend_on_the_poll_interval(self, tmp_path):
        serial = _serial_store(tmp_path)
        started = time.perf_counter()
        result, store, _ = _spool_campaign(tmp_path, poll_interval=3.0)
        elapsed = time.perf_counter() - started
        assert result.failures == 0
        assert store.read_bytes() == serial.read_bytes()
        assert elapsed < 1.5

    def test_all_spawned_workers_dying_fails_fast(self, tmp_path, monkeypatch):
        """The coordinator waits on the dead workers' sentinels, not on a
        3 s poll interval."""

        def dead_worker(self):
            process = multiprocessing.get_context("fork").Process(target=sys.exit, args=(3,))
            process.start()
            return process

        monkeypatch.setattr(SpoolBackend, "_spawn_worker", dead_worker)
        backend = SpoolBackend(tmp_path / "spool", workers=2, poll_interval=3.0)
        started = time.perf_counter()
        with pytest.raises(SpoolDispatchError, match=r"exited \(return codes \[3, 3\]\)"):
            ParallelCampaignRunner(backend=backend).run("demo/random_walk", seeds=[1, 2])
        assert time.perf_counter() - started < 1.5

    def test_the_factory_imports_its_modules_in_the_coordinator_only(
        self, tmp_path, monkeypatch
    ):
        probe = tmp_path / f"{PROBE_MODULE}.py"
        probe.write_text(
            "import os\n"
            "with open(__file__ + '.pids', 'a') as handle:\n"
            "    handle.write(f'{os.getpid()}\\n')\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.delitem(sys.modules, PROBE_MODULE, raising=False)
        spec = ScenarioSpec(
            name="probe/import_pid",
            factory=_probe_factory,
            parameters=parameters_from_signature(_probe_factory),
            metric_fields=("value",),
        )
        monkeypatch.setitem(REGISTRY._specs, spec.name, spec)
        try:
            backend = SpoolBackend(
                tmp_path / "spool", workers=2, poll_interval=0.01, timeout=120.0
            )
            result = ParallelCampaignRunner(backend=backend).run(spec.name, seeds=SEEDS)
        finally:
            sys.modules.pop(PROBE_MODULE, None)
        assert result.failures == 0
        pids = (tmp_path / f"{PROBE_MODULE}.py.pids").read_text().split()
        assert pids == [str(os.getpid())]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
    def test_back_to_back_campaigns_leak_no_descriptors(self, tmp_path):
        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        before = open_fds()
        for campaign in ("first", "second"):
            (tmp_path / campaign).mkdir()
            result, _, _ = _spool_campaign(tmp_path / campaign)
            assert result.failures == 0
        assert open_fds() == before


class TestSpoolCacheWrites:
    def test_each_executed_cell_is_written_to_the_cache_once(self, tmp_path, capsys):
        serial = tmp_path / "serial.jsonl"
        assert cli_main(
            ["run", "demo/random_walk", "--seeds", "8", "--store", str(serial), "--strict"]
        ) == 0
        cache = tmp_path / "cache"
        spooled = tmp_path / "spooled.jsonl"
        assert cli_main(
            [
                "run", "demo/random_walk", "--seeds", "8", "--backend", "spool",
                "--spool", str(tmp_path / "spool"), "--workers", "2",
                "--timeout", "120", "--cache", str(cache), "--store", str(spooled),
                "--strict",
            ]
        ) == 0
        assert "8 executed" in capsys.readouterr().out
        assert spooled.read_bytes() == serial.read_bytes()
        lines = (cache / "stats.jsonl").read_text(encoding="utf-8").splitlines()
        assert sum(json.loads(line)["puts"] for line in lines) == 8
        assert len(CacheIndex(cache)) == 8
        # The coordinator is the only writer: one segment, one ledger flush.
        assert len(list((cache / "segments").iterdir())) == 1
        assert len(lines) == 1
