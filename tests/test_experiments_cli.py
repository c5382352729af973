"""End-to-end tests for ``python -m repro.experiments``."""

import pytest

from repro.experiments.cli import main


class TestList:
    def test_list_shows_registered_scenarios(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("platoon", "intersection", "lane_change", "avionics", "demo/random_walk"):
            assert name in out

    def test_list_filters_by_tag(self, capsys):
        assert main(["list", "--tag", "avionics"]) == 0
        out = capsys.readouterr().out
        assert "avionics" in out and "lane_change" not in out


class TestRun:
    def test_run_unknown_scenario_fails_cleanly(self, capsys):
        assert main(["run", "no-such-scenario"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err

    def test_run_bad_param_fails_cleanly(self, capsys):
        assert main(["run", "demo/random_walk", "-p", "nope=1"]) == 2
        assert "no parameter" in capsys.readouterr().err

    def test_run_with_sweep_and_jobs(self, capsys):
        rc = main(
            [
                "run", "demo/random_walk",
                "--seeds", "4", "--jobs", "2",
                "--sweep", "sigma=1.0,2.0",
                "-p", "steps=200",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "8 runs" in out
        assert "aggregate metrics" in out
        assert "per-sigma means" in out

    def test_run_store_and_resume(self, tmp_path, capsys):
        store = str(tmp_path / "walk.jsonl")
        assert main(["run", "demo/random_walk", "--seeds", "5", "--store", store]) == 0
        first = capsys.readouterr().out
        assert "5 executed, 0 reused" in first
        assert main(["run", "demo/random_walk", "--seeds", "5", "--store", store]) == 0
        second = capsys.readouterr().out
        assert "0 executed, 5 reused" in second

    def test_jobs_do_not_change_aggregates(self, tmp_path, capsys):
        def aggregates(jobs):
            assert main(["run", "demo/random_walk", "--seeds", "6", "--jobs", jobs]) == 0
            out = capsys.readouterr().out
            return out[out.index("aggregate metrics"):]

        assert aggregates("1") == aggregates("3")

    def test_seed_list_and_explicit_base(self, capsys):
        assert main(["run", "demo/random_walk", "--seed-list", "10,20"]) == 0
        assert "2 runs" in capsys.readouterr().out


class TestReport:
    def test_report_on_stored_campaign(self, tmp_path, capsys):
        store = str(tmp_path / "walk.jsonl")
        assert main(
            ["run", "demo/random_walk", "--seeds", "4", "--sweep", "drift=0.0,0.2", "--store", store]
        ) == 0
        capsys.readouterr()
        assert main(["report", store, "--group-by", "drift"]) == 0
        out = capsys.readouterr().out
        assert "demo/random_walk: 8 runs" in out
        assert "per-drift means" in out

    def test_report_empty_store(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "missing.jsonl")]) == 1
        assert "no records" in capsys.readouterr().out

    @pytest.fixture
    def stored_campaign(self, tmp_path, capsys):
        store = str(tmp_path / "walk.jsonl")
        assert main(
            ["run", "demo/random_walk", "--seeds", "3", "--sweep", "drift=0.0,0.2",
             "--store", store, "--jobs", "2", "--task-size", "2"]
        ) == 0
        capsys.readouterr()
        return store

    def test_report_format_csv(self, stored_campaign, capsys):
        assert main(["report", stored_campaign, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("scenario,metric,count,mean")
        assert any(line.startswith("demo/random_walk,final_position,") for line in lines)

    def test_report_format_csv_grouped(self, stored_campaign, capsys):
        assert main(
            ["report", stored_campaign, "--format", "csv", "--group-by", "drift"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("scenario,drift,runs,failures")
        assert len(lines) == 3  # header + one row per drift value

    def test_report_format_json(self, stored_campaign, capsys):
        import json as json_module

        assert main(
            ["report", stored_campaign, "--format", "json", "--group-by", "drift"]
        ) == 0
        document = json_module.loads(capsys.readouterr().out)
        entry = document["demo/random_walk"]
        assert entry["runs"] == 6 and entry["failed"] == 0
        assert "final_position" in entry["aggregates"]
        assert {row["drift"] for row in entry["groups"]} == {0.0, 0.2}
