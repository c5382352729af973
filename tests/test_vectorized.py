"""Lockstep vectorized backend (``repro.vectorized`` / ``--backend vector``).

The contract under test: a vector campaign's store is **byte-identical**
to the inline kernel's for every seed, whatever mix of fast path, probe
and fallback produced it.  Everything else (occupancy stats,
provenance surfaces, CLI guards) hangs off that.
"""

import json
from collections import Counter

import pytest

from repro.experiments import ParallelCampaignRunner, ResultStore
from repro.experiments.cli import main as cli_main
from repro.experiments.registry import load_builtin_scenarios
from repro.observability.progress import read_progress
from repro.observability.trace import disable_tracing, merge_trace_files, summarize_trace
from repro.resilience import FaultPlan, FaultRule, armed
from repro.vectorized import (
    PROGRAMS,
    VectorBatchBackend,
    VectorStats,
    program_for,
)

REGISTRY = load_builtin_scenarios()


def run_store(tmp_path, name, scenario, seeds, params=None, backend=None):
    """Run one campaign into ``tmp_path/name`` and return the store path."""
    path = tmp_path / name
    ParallelCampaignRunner(
        registry=REGISTRY, store=ResultStore(path), backend=backend
    ).run(scenario, params=params, seeds=list(seeds))
    return path


def run_pair(tmp_path, scenario, seeds, params=None, backend=None):
    """Inline and vector stores for the same campaign, plus the backend used."""
    inline = run_store(tmp_path, "inline.jsonl", scenario, seeds, params)
    backend = backend or VectorBatchBackend()
    vector = run_store(tmp_path, "vector.jsonl", scenario, seeds, params, backend=backend)
    return inline.read_bytes(), vector.read_bytes(), backend


class TestByteIdentity:
    @pytest.mark.parametrize(
        "scenario, params, n_seeds",
        [
            ("sensor_validity", {"fault_class": "stuck_at"}, 16),
            ("sensor_validity", {"fault_class": "permanent_offset", "samples": 250}, 8),
            ("sensor_validity", {"fault_class": "delay", "samples": 150}, 8),
            ("sensor_validity", {"fault_class": "sporadic_offset", "samples": 150}, 8),
            ("sensor_validity", {"fault_class": "stochastic_offset", "samples": 150}, 8),
            ("tdma_convergence", None, 12),
            ("tdma_convergence", {"rows": 5, "cols": 5, "slots": 30}, 8),
            ("tdma_convergence", {"rows": 4, "cols": 4}, 16),
        ],
        ids=[
            "e2-stuck",
            "e2-offset",
            "e2-delay",
            "e2-sporadic",
            "e2-stochastic",
            "e4-default",
            "e4-5x5",
            "e4-4x4",
        ],
    )
    def test_vector_store_matches_inline(self, tmp_path, scenario, params, n_seeds):
        inline, vector, backend = run_pair(tmp_path, scenario, range(n_seeds), params)
        assert vector == inline
        assert backend.stats.batches == 1
        # One scalar probe per batch; everything else rides the fast path.
        assert backend.stats.probe_cells == 1
        assert backend.stats.fast_cells == n_seeds - 1
        assert backend.stats.probe_mismatches == 0
        assert 0.0 < backend.stats.occupancy < 1.0

    def test_sweep_plans_one_batch_per_param_point(self, tmp_path):
        inline_path = tmp_path / "inline.jsonl"
        vector_path = tmp_path / "vector.jsonl"
        sweep = [{"fault_class": "stuck_at"}, {"fault_class": "permanent_offset"}]
        seeds = list(range(6))
        ParallelCampaignRunner(registry=REGISTRY, store=ResultStore(inline_path)).run(
            "sensor_validity", sweep=sweep, seeds=seeds
        )
        backend = VectorBatchBackend()
        ParallelCampaignRunner(registry=REGISTRY, store=ResultStore(vector_path), backend=backend).run(
            "sensor_validity", sweep=sweep, seeds=seeds
        )
        assert vector_path.read_bytes() == inline_path.read_bytes()
        assert backend.stats.groups == 2
        assert backend.stats.batches == 2


class TestFallbacks:
    def test_unknown_fault_class_falls_back_whole(self, tmp_path):
        inline, vector, backend = run_pair(
            tmp_path, "sensor_validity", range(6), {"fault_class": "no_such_fault"}
        )
        assert vector == inline
        assert all(json.loads(line)["error_class"] == "ValueError" for line in inline.splitlines())
        assert backend.stats.batches == 0
        assert backend.stats.ineligible_groups == 1
        assert backend.stats.fallback_cells == 6
        assert backend.stats.occupancy == 0.0

    def test_tdma_churn_falls_back_whole(self, tmp_path):
        inline, vector, backend = run_pair(
            tmp_path, "tdma_convergence", range(4), {"churn": True}
        )
        assert vector == inline
        assert backend.stats.batches == 0
        assert backend.stats.ineligible_groups == 1

    def test_unprogrammed_scenario_falls_back_whole(self, tmp_path):
        inline, vector, backend = run_pair(tmp_path, "event_channels", range(3))
        assert vector == inline
        assert backend.stats.batches == 0
        assert backend.stats.fallback_cells == 3

    def test_single_seed_group_is_not_batched(self, tmp_path):
        inline, vector, backend = run_pair(
            tmp_path, "tdma_convergence", [7]
        )
        assert vector == inline
        assert backend.stats.batches == 0
        assert backend.stats.fallback_cells == 1

    def test_program_error_falls_back_whole(self, tmp_path, monkeypatch):
        real = program_for

        class ExplodingProgram:
            def run(self, spec, seeds, params):
                raise RuntimeError("boom")

        monkeypatch.setattr(
            "repro.vectorized.backend.program_for",
            lambda spec, params: ExplodingProgram() if real(spec, params) else None,
        )
        inline, vector, backend = run_pair(tmp_path, "tdma_convergence", range(6))
        assert vector == inline
        assert backend.stats.program_errors == 1
        assert backend.stats.batches == 0
        assert backend.stats.fallback_cells == 6

    def test_seed_missing_from_output_finishes_scalar(self, tmp_path, monkeypatch):
        real = program_for

        class DroppingProgram:
            def __init__(self, inner):
                self.inner = inner

            def run(self, spec, seeds, params):
                outputs = self.inner.run(spec, seeds, params)
                del outputs[3]
                return outputs

        monkeypatch.setattr(
            "repro.vectorized.backend.program_for",
            lambda spec, params: (
                DroppingProgram(real(spec, params)) if real(spec, params) else None
            ),
        )
        inline, vector, backend = run_pair(tmp_path, "tdma_convergence", range(8))
        assert vector == inline
        assert backend.stats.batches == 1
        assert backend.stats.fallback_cells == 1
        assert backend.stats.fast_cells == 6  # 8 - probe - missing seed

    def test_seed_without_the_probes_metrics_finishes_scalar(self, tmp_path, monkeypatch):
        real = program_for

        class HollowProgram:
            def __init__(self, inner):
                self.inner = inner

            def run(self, spec, seeds, params):
                outputs = self.inner.run(spec, seeds, params)
                outputs[3] = {}
                return outputs

        monkeypatch.setattr(
            "repro.vectorized.backend.program_for",
            lambda spec, params: (
                HollowProgram(real(spec, params)) if real(spec, params) else None
            ),
        )
        inline, vector, backend = run_pair(tmp_path, "tdma_convergence", range(8))
        assert vector == inline
        assert backend.stats.batches == 1
        assert backend.stats.fallback_cells == 1
        assert backend.stats.fast_cells == 6  # 8 - probe - hollow seed

    def test_probe_mismatch_reruns_group_scalar(self, tmp_path, monkeypatch):
        real = program_for

        class LyingProgram:
            def __init__(self, inner):
                self.inner = inner

            def run(self, spec, seeds, params):
                outputs = self.inner.run(spec, seeds, params)
                probe_seed = seeds[0]
                outputs[probe_seed] = dict(outputs[probe_seed])
                outputs[probe_seed]["frames_to_converge"] = 10**9
                return outputs

        monkeypatch.setattr(
            "repro.vectorized.backend.program_for",
            lambda spec, params: (
                LyingProgram(real(spec, params)) if real(spec, params) else None
            ),
        )
        inline, vector, backend = run_pair(tmp_path, "tdma_convergence", range(6))
        assert vector == inline
        assert backend.stats.probe_mismatches == 1
        assert backend.stats.batches == 0
        assert backend.stats.fast_cells == 0

    def test_probe_seed_missing_from_output_reruns_group_scalar(self, tmp_path, monkeypatch):
        real = program_for

        class ProbelessProgram:
            def __init__(self, inner):
                self.inner = inner

            def run(self, spec, seeds, params):
                outputs = self.inner.run(spec, seeds, params)
                del outputs[seeds[0]]
                return outputs

        monkeypatch.setattr(
            "repro.vectorized.backend.program_for",
            lambda spec, params: (
                ProbelessProgram(real(spec, params)) if real(spec, params) else None
            ),
        )
        inline, vector, backend = run_pair(tmp_path, "tdma_convergence", range(6))
        assert vector == inline
        # Nothing to compare the probe against counts as a mismatch: the
        # rest of the group is not trusted.
        assert backend.stats.probe_mismatches == 1
        assert backend.stats.probe_cells == 1
        assert backend.stats.fallback_cells == 5
        assert backend.stats.fast_cells == 0


class TestComposition:
    def test_resumed_campaign_batches_only_pending_seeds(self, tmp_path):
        inline = tmp_path / "inline.jsonl"
        vector = tmp_path / "vector.jsonl"
        for seeds in (range(4), range(8)):
            run_store(tmp_path, "inline.jsonl", "tdma_convergence", seeds)
        backend = VectorBatchBackend()
        runner = ParallelCampaignRunner(
            registry=REGISTRY, store=ResultStore(vector), backend=backend
        )
        runner.run("tdma_convergence", seeds=list(range(4)))
        result = runner.run("tdma_convergence", seeds=list(range(8)))
        assert vector.read_bytes() == inline.read_bytes()
        assert Counter(record.executed_by for record in result.records) == {
            "store": 4,
            "scalar": 1,
            "vector": 3,
        }
        assert [record.seed for record in result.records if record.executed_by == "scalar"] == [4]
        assert backend.stats.batches == 1
        assert backend.stats.total_cells == 4

    def test_faulted_probe_is_retried_and_batch_verifies(self, tmp_path):
        def plan():
            return FaultPlan(
                [FaultRule(point="run.cell", kind="io_error", match={"seed": 0}, times=1)]
            )

        inline_plan, vector_plan = plan(), plan()
        with armed(inline_plan):
            inline = run_store(tmp_path, "inline.jsonl", "tdma_convergence", range(6))
        backend = VectorBatchBackend()
        with armed(vector_plan):
            vector = run_store(
                tmp_path, "vector.jsonl", "tdma_convergence", range(6), backend=backend
            )
        assert inline_plan.fired_counts() == vector_plan.fired_counts() == {
            "run.cell:io_error": 1
        }
        assert vector.read_bytes() == inline.read_bytes()
        assert all(json.loads(line)["status"] == "ok" for line in inline.read_text().splitlines())
        # The transient fault hit the probe's first attempt; the retry's
        # record still matched the fast path, so the batch was verified.
        assert backend.stats.probe_cells == 1
        assert backend.stats.probe_mismatches == 0
        assert backend.stats.batches == 1
        assert backend.stats.fast_cells == 5


class TestEngineUnits:
    def test_every_program_runs_a_registered_scenario(self):
        assert sorted(PROGRAMS) == ["sensor_validity", "tdma_convergence"]
        for name, program in PROGRAMS.items():
            assert program.scenario == name
            assert name in REGISTRY, f"program registered for unknown scenario {name!r}"

    def test_vector_stats_occupancy_and_summary(self):
        stats = VectorStats()
        assert stats.occupancy == 0.0
        stats.batches = 1
        stats.fast_cells = 7
        stats.probe_cells = 1
        stats.fallback_cells = 2
        assert stats.total_cells == 10
        assert stats.occupancy == pytest.approx(0.7)
        summary = stats.summary()
        assert "7/10" in summary and "70%" in summary


class TestCliAndProvenance:
    def test_vector_rejects_parallel_and_task_size_flags(self, capsys):
        args = ["run", "tdma_convergence", "--seeds", "4", "--backend", "vector"]
        assert cli_main(args + ["--jobs", "2"]) == 2
        assert "--jobs only applies to --backend spool (not vector)" in capsys.readouterr().err
        assert cli_main(args + ["--task-size", "2"]) == 2
        assert "--task-size only applies to --backend spool (not vector)" in (
            capsys.readouterr().err
        )

    def test_vector_run_report_status_surfaces(self, tmp_path, capsys):
        store = tmp_path / "vector.jsonl"
        rc = cli_main(
            [
                "run",
                "tdma_convergence",
                "--seeds",
                "8",
                "--backend",
                "vector",
                "--store",
                str(store),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "backend=vector" in out
        assert "7/8 cells on the fast path" in out

        inline = tmp_path / "inline.jsonl"
        assert (
            cli_main(
                ["run", "tdma_convergence", "--seeds", "8", "--store", str(inline)]
            )
            == 0
        )
        capsys.readouterr()
        assert store.read_bytes() == inline.read_bytes()

        progress = read_progress(tmp_path / "vector.jsonl.progress.json")
        assert progress.backend == "vector"
        assert (progress.total, progress.done) == (8, 8)

        assert cli_main(["report", str(store)]) == 0
        assert "last campaign: backend=vector" in capsys.readouterr().out

        assert cli_main(["status", str(store)]) == 0
        out = capsys.readouterr().out
        assert "[vector]" in out and "8/8 done" in out

    def test_vector_trace_reports_batch_stats_and_probe_phases(self, tmp_path, capsys):
        store = tmp_path / "vector.jsonl"
        argv = ["run", "tdma_convergence", "--seeds", "6", "--backend", "vector",
                "--trace", "--store", str(store)]
        try:
            assert cli_main(argv) == 0
        finally:
            disable_tracing()
        out = capsys.readouterr().out
        assert "vector: 1 batch(es), 5/6 cells on the fast path" in out
        assert "cell phases of trace" in out
        # Only the scalar probe ran the scalar kernel, so only it carries
        # phase spans, all children of its one attempt.
        spans = merge_trace_files(f"{store}.trace")
        phases = [span for span in spans if span["cat"] == "phase"]
        (attempt,) = [span for span in spans if span["cat"] == "attempt"]
        assert phases and {span["parent"] for span in phases} == {attempt["span"]}
        rows = summarize_trace(spans)["cell_phases"]
        assert {row["count"] for row in rows} == {1}

    def test_vector_stats_counters(self):
        backend = VectorBatchBackend()
        result = ParallelCampaignRunner(registry=REGISTRY, backend=backend).run(
            "tdma_convergence", seeds=list(range(8))
        )
        assert backend.stats.batches == 1
        assert backend.stats.fallback_cells == 0
        assert 0.0 < backend.stats.occupancy < 1.0
        assert Counter(record.executed_by for record in result.records) == {
            "scalar": 1,
            "vector": 7,
        }
