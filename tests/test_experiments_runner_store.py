"""Tests for the parallel campaign runner and the JSONL result store."""

import json
import warnings

import pytest

from repro.distributed import SpoolBackend
from repro.experiments import (
    REGISTRY,
    ParallelCampaignRunner,
    ParameterGrid,
    ResultStore,
    RunRecord,
    ScenarioRegistry,
    ScenarioSpec,
)
from repro.experiments.spec import parameters_from_signature


def _flaky_factory(seed, fail_on=2):
    if seed == fail_on:
        raise RuntimeError(f"boom at seed {seed}")
    return {"value": float(seed)}


def _flaky_spec(name="flaky"):
    return ScenarioSpec(
        name=name,
        factory=_flaky_factory,
        parameters=parameters_from_signature(_flaky_factory),
        metric_fields=("value",),
    )


class TestRunnerExecution:
    def test_serial_campaign_aggregates(self):
        result = ParallelCampaignRunner().run("demo/random_walk", seeds=range(1, 7))
        assert result.run_count == 6
        assert result.failures == 0
        assert result.aggregates["final_position"]["count"] == 6

    def test_parallel_matches_serial_exactly(self, tmp_path):
        serial = ParallelCampaignRunner().run(
            "demo/random_walk", sweep=ParameterGrid(drift=(0.0, 0.1)), seeds=range(1, 7)
        )
        backend = SpoolBackend(tmp_path / "spool", workers=3, timeout=120.0)
        parallel = ParallelCampaignRunner(backend=backend).run(
            "demo/random_walk", sweep=ParameterGrid(drift=(0.0, 0.1)), seeds=range(1, 7)
        )
        assert [r.metrics for r in serial.records] == [r.metrics for r in parallel.records]
        assert [(r.seed, r.params) for r in serial.records] == [
            (r.seed, r.params) for r in parallel.records
        ]
        assert serial.aggregates == parallel.aggregates

    def test_crashing_run_is_recorded_not_fatal(self):
        result = ParallelCampaignRunner().run(_flaky_spec(), seeds=[1, 2, 3])
        assert result.run_count == 3
        assert result.failures == 1
        failed = result.failed_records[0]
        assert failed.seed == 2
        assert "boom at seed 2" in failed.error
        # Aggregates cover only the successful runs.
        assert result.aggregates["value"]["count"] == 2
        assert result.metric("value", "mean") == 2.0

    def test_parallel_crash_capture(self, tmp_path, monkeypatch):
        # Spool workers resolve the scenario by name, so it is registered.
        spec = _flaky_spec("test/flaky")
        monkeypatch.setitem(REGISTRY._specs, spec.name, spec)
        backend = SpoolBackend(tmp_path / "spool", workers=2, timeout=120.0)
        result = ParallelCampaignRunner(backend=backend).run(spec, seeds=[1, 2, 3, 4])
        assert result.failures == 1
        assert result.failed_records[0].seed == 2
        assert "boom at seed 2" in result.failed_records[0].error

    def test_grouped_rows_average_over_seeds(self):
        result = ParallelCampaignRunner().run(
            "demo/random_walk", sweep=ParameterGrid(sigma=(1.0, 2.0)), seeds=[1, 2, 3]
        )
        rows = result.grouped_rows(by=("sigma",))
        assert [row["sigma"] for row in rows] == [1.0, 2.0]
        assert all(row["runs"] == 3 for row in rows)
        # Doubling sigma scales the walk linearly for the same seeds.
        assert rows[1]["max_excursion"] == pytest.approx(2 * rows[0]["max_excursion"])


class TestResultStore:
    def test_store_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        record = RunRecord(scenario="s", params={"a": 1}, seed=3, metrics={"m": 1.5})
        store.add(record)
        fresh = ResultStore(tmp_path / "r.jsonl")
        loaded = fresh.get(record.key)
        assert loaded == record
        assert fresh.completed_keys() == [record.key]

    def test_corrupt_lines_are_skipped_with_one_warning(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store = ResultStore(path)
        store.add(RunRecord(scenario="s", params={}, seed=1, metrics={"m": 1.0}))
        with path.open("a") as handle:
            handle.write("{truncated json\n")
            handle.write("\n")
        fresh = ResultStore(path)
        with pytest.warns(RuntimeWarning, match="malformed JSONL"):
            assert len(fresh) == 1
        assert fresh.malformed_lines == 1

    def test_truncated_final_line_is_counted_and_warned(self, tmp_path):
        """Regression: a partial final line (interrupted write) must be
        surfaced, not silently dropped."""
        path = tmp_path / "r.jsonl"
        store = ResultStore(path)
        store.add(RunRecord(scenario="s", params={"a": 1}, seed=1, metrics={"m": 1.0}))
        store.add(RunRecord(scenario="s", params={"a": 1}, seed=2, metrics={"m": 2.0}))
        full_line = path.read_text().splitlines()[0]
        with path.open("a") as handle:
            handle.write(full_line[: len(full_line) // 2])  # no trailing newline
        fresh = ResultStore(path)
        with pytest.warns(RuntimeWarning, match=r"skipped 1 malformed JSONL line"):
            records = fresh.records()
        assert len(records) == 2
        assert fresh.malformed_lines == 1
        # With the bad tail stripped, the store loads silently again.
        path.write_text("\n".join(path.read_text().splitlines()[:2]) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(ResultStore(path)) == 2

    def test_resume_skips_completed_runs(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        first = ParallelCampaignRunner(store=ResultStore(path)).run(
            "demo/random_walk", seeds=[1, 2, 3]
        )
        assert first.executed == 3 and first.reused == 0

        # Re-running the superset only executes the missing seeds...
        second = ParallelCampaignRunner(store=ResultStore(path)).run(
            "demo/random_walk", seeds=[1, 2, 3, 4, 5]
        )
        assert second.reused == 3
        assert second.executed == 2
        # ...and the combined aggregates match a fresh full campaign.
        fresh = ParallelCampaignRunner().run("demo/random_walk", seeds=[1, 2, 3, 4, 5])
        assert second.aggregates == fresh.aggregates

    def test_failed_runs_are_retried_on_resume(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        registry = ScenarioRegistry()
        registry.register(_flaky_spec())
        runner = ParallelCampaignRunner(registry=registry, store=ResultStore(path))
        first = runner.run("flaky", seeds=[1, 2, 3])
        assert first.failures == 1
        # Only successful records satisfy resume: the failed cell re-runs.
        second = ParallelCampaignRunner(registry=registry, store=ResultStore(path)).run(
            "flaky", seeds=[1, 2, 3]
        )
        assert second.reused == 2  # seeds 1 and 3 come from the store
        assert second.failures == 1  # seed 2 re-ran (and failed again)

    def test_store_is_byte_deterministic_across_job_counts(self, tmp_path):
        path_a = tmp_path / "a.jsonl"
        path_b = tmp_path / "b.jsonl"
        ParallelCampaignRunner(store=ResultStore(path_a)).run(
            "demo/random_walk", sweep=ParameterGrid(drift=(0.0, 0.5)), seeds=[1, 2, 3]
        )
        ParallelCampaignRunner(
            store=ResultStore(path_b), backend=SpoolBackend(tmp_path / "spool", workers=3)
        ).run(
            "demo/random_walk", sweep=ParameterGrid(drift=(0.0, 0.5)), seeds=[1, 2, 3]
        )
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_stored_lines_are_valid_json_with_keys(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        ParallelCampaignRunner(store=ResultStore(path)).run(
            "demo/random_walk", seeds=[1, 2]
        )
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 2
        for payload in lines:
            assert payload["scenario"] == "demo/random_walk"
            assert "seed=" in payload["key"]
            assert "duration" not in payload  # timing is transient by design
