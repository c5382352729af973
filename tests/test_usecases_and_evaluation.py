"""Integration tests: the four use cases and the evaluation toolkit.

These are end-to-end runs of the scenarios the benchmarks use, with shorter
durations so the suite stays fast.  They assert the qualitative shapes the
paper's argument implies (safety with the kernel, hazards without it,
fallback behaviour under failure).
"""

import pytest

from repro.core.asil import ASIL
from repro.core.hazard import SafetyGoal
from repro.evaluation.iso26262 import SafetyCase, Verdict
from repro.evaluation.metrics import PerformanceMetrics, SafetyMetrics, summarize
from repro.evaluation.reporting import format_series, format_table
from repro.experiments import ParallelCampaignRunner, ScenarioSpec
from repro.usecases.acc import ArchitectureVariant, PlatoonConfig, PlatoonScenario
from repro.usecases.avionics import AvionicsConfig, AvionicsScenario, AvionicsUseCase
from repro.usecases.intersection import (
    IntersectionConfig,
    IntersectionMode,
    IntersectionScenario,
)
from repro.usecases.lane_change import LaneChangeConfig, LaneChangeScenario


def run_platoon(variant, duration=45.0, followers=3, bursts=((18.0, 8.0),), seed=1):
    config = PlatoonConfig(
        followers=followers,
        duration=duration,
        variant=variant,
        interference_bursts=bursts,
        seed=seed,
    )
    return PlatoonScenario(config).run()


class TestPlatoonUseCase:
    def test_karyon_platoon_is_safe_under_communication_blackout(self):
        result = run_platoon(ArchitectureVariant.KARYON)
        assert result.collisions == 0
        assert result.hazardous_states == 0
        assert result.downgrades >= 1  # the kernel reacted to the blackout
        assert result.max_kernel_cycle_interval <= 0.1 + 1e-6

    def test_always_cooperative_platoon_is_unsafe_under_blackout(self):
        result = run_platoon(ArchitectureVariant.ALWAYS_COOPERATIVE)
        assert result.collisions > 0 or result.hazardous_states > 0

    def test_never_cooperative_is_safe_but_slower(self):
        conservative = run_platoon(ArchitectureVariant.NEVER_COOPERATIVE)
        karyon = run_platoon(ArchitectureVariant.KARYON)
        assert conservative.collisions == 0
        assert conservative.mean_time_gap > karyon.mean_time_gap
        assert karyon.throughput > conservative.throughput

    def test_kernel_downgrades_resolve_after_recovery(self):
        result = run_platoon(ArchitectureVariant.KARYON, duration=50.0)
        # After the blackout ends the platoon returns to the cooperative LoS.
        assert result.los_residency.get("cooperative", 0.0) > 0.5

    def test_sensor_fault_injection_degrades_los(self):
        from repro.sensors.faults import StuckAtFault

        config = PlatoonConfig(
            followers=2,
            duration=30.0,
            variant=ArchitectureVariant.KARYON,
            sensor_faults=((1, StuckAtFault(), 10.0, 20.0),),
        )
        result = PlatoonScenario(config).run()
        assert result.collisions == 0
        assert result.los_residency.get("conservative", 0.0) > 0.0 or result.downgrades >= 1


class TestIntersectionUseCase:
    def test_healthy_light_is_conflict_free(self):
        result = IntersectionScenario(
            IntersectionConfig(mode=IntersectionMode.INFRASTRUCTURE,
                               vehicles_per_approach=3, duration=90.0)
        ).run()
        assert result.conflicts == 0
        assert result.crossed == 6

    def test_vtl_fallback_restores_throughput_after_light_failure(self):
        result = IntersectionScenario(
            IntersectionConfig(mode=IntersectionMode.VTL_FALLBACK,
                               vehicles_per_approach=3, duration=120.0,
                               light_failure_time=15.0)
        ).run()
        assert result.conflicts == 0
        assert result.crossed == 6
        assert result.vtl_activations > 0

    def test_uncoordinated_fallback_is_worse(self):
        vtl = IntersectionScenario(
            IntersectionConfig(mode=IntersectionMode.VTL_FALLBACK,
                               vehicles_per_approach=3, duration=120.0,
                               light_failure_time=15.0)
        ).run()
        uncoordinated = IntersectionScenario(
            IntersectionConfig(mode=IntersectionMode.UNCOORDINATED,
                               vehicles_per_approach=3, duration=120.0,
                               light_failure_time=15.0)
        ).run()
        assert (
            uncoordinated.conflicts > vtl.conflicts
            or uncoordinated.crossed < vtl.crossed
            or uncoordinated.mean_delay > vtl.mean_delay
        )


class TestLaneChangeUseCase:
    def test_coordinated_changes_never_overlap(self):
        result = LaneChangeScenario(LaneChangeConfig(coordinated=True, duration=45.0)).run()
        assert result.simultaneous_violations == 0
        assert result.completed_changes >= 2

    def test_uncoordinated_changes_overlap(self):
        result = LaneChangeScenario(LaneChangeConfig(coordinated=False, duration=45.0)).run()
        assert result.simultaneous_violations > 0


class TestAvionicsUseCase:
    @pytest.mark.parametrize("use_case", list(AvionicsUseCase))
    def test_kernel_keeps_separation_for_all_use_cases(self, use_case):
        result = AvionicsScenario(
            AvionicsConfig(use_case=use_case, with_safety_kernel=True,
                           intruder_collaborative=True, duration=420.0)
        ).run()
        assert result.conflicts == 0
        assert result.mission_completed

    def test_non_collaborative_traffic_forces_conservative_los(self):
        result = AvionicsScenario(
            AvionicsConfig(use_case=AvionicsUseCase.IN_TRAIL, with_safety_kernel=True,
                           intruder_collaborative=False, duration=300.0)
        ).run()
        assert result.los_share_collaborative < 0.1

    def test_kernel_margin_larger_with_uncertain_traffic(self):
        with_kernel = AvionicsScenario(
            AvionicsConfig(use_case=AvionicsUseCase.IN_TRAIL, with_safety_kernel=True,
                           intruder_collaborative=False, duration=300.0)
        ).run()
        without_kernel = AvionicsScenario(
            AvionicsConfig(use_case=AvionicsUseCase.IN_TRAIL, with_safety_kernel=False,
                           intruder_collaborative=False, duration=300.0)
        ).run()
        assert with_kernel.min_horizontal_separation > without_kernel.min_horizontal_separation


class TestEvaluationToolkit:
    def test_summarize_statistics(self):
        stats = summarize([1.0, 2.0, 3.0, 4.0])
        assert stats["mean"] == pytest.approx(2.5)
        assert stats["min"] == 1.0 and stats["max"] == 4.0
        assert summarize([])["count"] == 0

    def test_safety_metrics_flag(self):
        assert SafetyMetrics().is_safe
        assert not SafetyMetrics(collisions=1).is_safe

    def test_campaign_runs_multiple_seeds(self):
        spec = ScenarioSpec(
            name="platoon-karyon",
            factory=lambda seed: run_platoon(ArchitectureVariant.KARYON, duration=20.0,
                                             followers=2, bursts=(), seed=seed),
            metric_fields=("collisions", "mean_speed"),
        )
        result = ParallelCampaignRunner().run(spec, seeds=[1, 2])
        assert result.run_count == 2
        assert result.metric("collisions", "max") == 0.0
        assert result.metric("mean_speed", "mean") > 0.0

    def test_campaign_survives_a_raising_factory(self):
        # Regression: a factory that raises used to abort the whole campaign.
        def factory(seed):
            if seed == 2:
                raise RuntimeError("injected factory crash")
            return run_platoon(ArchitectureVariant.KARYON, duration=15.0,
                               followers=2, bursts=(), seed=seed)

        spec = ScenarioSpec(
            name="platoon-with-crash",
            factory=factory,
            metric_fields=("collisions", "mean_speed"),
        )
        result = ParallelCampaignRunner().run(spec, seeds=[1, 2, 3])
        assert result.run_count == 3
        assert result.failures == 1
        failed = result.failed_records
        assert len(failed) == 1
        assert failed[0].seed == 2
        assert "injected factory crash" in failed[0].error
        assert failed[0].raw_result is None
        # Aggregates still cover the two successful runs.
        assert result.aggregates["mean_speed"]["count"] == 2
        assert result.metric("collisions", "max") == 0.0

    def test_safety_case_verdicts(self):
        case = SafetyCase("acc")
        goal_d = SafetyGoal("SG1", "no collisions", ASIL.D)
        goal_qm = SafetyGoal("SG2", "comfort", ASIL.QM)
        case.assess(goal_d, observed_violations=0, exposure_hours=1.0)
        case.assess(goal_qm, observed_violations=3, exposure_hours=1.0)
        assert case.overall_verdict() is Verdict.PASS
        case.assess(goal_d, observed_violations=1, exposure_hours=1.0)
        assert case.overall_verdict() is Verdict.FAIL
        assert case.failed_goals()
        assert case.as_rows()

    def test_empty_safety_case_not_assessed(self):
        assert SafetyCase("x").overall_verdict() is Verdict.NOT_ASSESSED

    def test_format_table_and_series(self):
        table = format_table([{"a": 1, "b": "x"}, {"a": 2, "b": "y"}], title="T")
        assert "T" in table and "a" in table and "x" in table
        series = format_series("fig", [1, 2], [0.1, 0.2], x_label="n", y_label="v")
        assert "fig" in series and "0.1" in series
        assert format_table([]) == "(no rows)"


def test_use_cases_import_and_run_without_networkx():
    """Only ``repro.cooperation.topology``'s graph functions need networkx:
    with it unimportable, the use cases import and a platoon cell runs."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = (
        "import sys; sys.modules['networkx'] = None\n"
        "import repro.usecases\n"
        "from repro.experiments.registry import load_builtin_scenarios\n"
        "from repro.experiments.runner import execute_run\n"
        "spec = load_builtin_scenarios().get('platoon/karyon')\n"
        "record = execute_run(spec, spec.runs(params={'duration': 5.0}, seeds=[1])[0])\n"
        "assert record.ok, record.error\n"
        "assert sys.modules['networkx'] is None\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    completed = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr


def test_importing_one_use_case_loads_none_of_its_siblings():
    """``repro.usecases`` and ``repro.cooperation`` re-export nothing, so a
    use case's module imports only what it uses itself."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = (
        "import sys, repro.usecases.acc\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith(('repro.usecases', 'repro.cooperation'))))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    completed = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "['repro.usecases', 'repro.usecases.acc']"
