"""Tests for ASIL/hazard analysis, LoS, rules, runtime data, health and the safety manager."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.asil import ASIL
from repro.core.hazard import (
    Controllability,
    Exposure,
    Hazard,
    HazardAnalysis,
    SafetyGoal,
    Severity,
    determine_asil,
)
from repro.core.health import ComponentKind, ComponentRegistry, ComponentState
from repro.core.kernel import SafetyKernel
from repro.core.los import LevelOfService, LoSCatalog
from repro.core.rules import (
    DesignTimeSafetyInfo,
    SafetyRule,
    component_healthy,
    freshness_within,
    indicator_at_least,
    indicator_at_most,
    indicator_true,
    validity_at_least,
)
from repro.core.runtime_data import RuntimeSafetyCollector, RuntimeSafetyData
from repro.core.safety_manager import LoSDecision, SafetyManager
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceRecorder


class TestAsilAndHazards:
    def test_asil_ordering(self):
        assert ASIL.QM < ASIL.A < ASIL.B < ASIL.C < ASIL.D

    def test_from_name(self):
        assert ASIL.from_name("d") is ASIL.D
        with pytest.raises(ValueError):
            ASIL.from_name("Z")

    def test_decomposition_pairs(self):
        assert ASIL.D.decompose() == (ASIL.C, ASIL.A)
        assert ASIL.B.decompose() == (ASIL.A, ASIL.A)

    def test_worst_case_classification_is_asil_d(self):
        assert determine_asil(Severity.S3, Exposure.E4, Controllability.C3) is ASIL.D

    def test_any_zero_classification_is_qm(self):
        assert determine_asil(Severity.S0, Exposure.E4, Controllability.C3) is ASIL.QM
        assert determine_asil(Severity.S3, Exposure.E0, Controllability.C3) is ASIL.QM

    def test_table_known_entries(self):
        assert determine_asil(Severity.S3, Exposure.E4, Controllability.C2) is ASIL.C
        assert determine_asil(Severity.S1, Exposure.E4, Controllability.C3) is ASIL.B
        assert determine_asil(Severity.S2, Exposure.E2, Controllability.C2) is ASIL.QM

    def test_hazard_asil_and_goal_traceability(self):
        analysis = HazardAnalysis("acc")
        hazard = analysis.add_hazard(
            Hazard("H1", "rear-end", Severity.S3, Exposure.E4, Controllability.C3)
        )
        goal = analysis.add_goal(SafetyGoal.from_hazard("SG1", "keep distance", hazard))
        assert goal.asil is ASIL.D
        assert analysis.highest_asil() is ASIL.D
        assert analysis.goals_for_hazard("H1") == [goal]


class TestLoSCatalog:
    def _catalog(self):
        return LoSCatalog(
            "acc",
            [
                LevelOfService("conservative", 0, {"gap": 2.5}),
                LevelOfService("autonomous", 1, {"gap": 1.4}),
                LevelOfService("cooperative", 2, {"gap": 0.6}, cooperative=True),
            ],
        )

    def test_fallback_and_highest(self):
        catalog = self._catalog()
        assert catalog.fallback.name == "conservative"
        assert catalog.highest.name == "cooperative"

    def test_duplicate_rank_rejected(self):
        catalog = self._catalog()
        with pytest.raises(ValueError):
            catalog.add(LevelOfService("again", 1))

    def test_cooperative_fallback_rejected(self):
        with pytest.raises(ValueError):
            LoSCatalog("f", [LevelOfService("bad", 0, cooperative=True)])

    def test_missing_fallback_detected(self):
        catalog = LoSCatalog("f", [LevelOfService("only-high", 1)])
        with pytest.raises(ValueError):
            catalog.validate()

    def test_ordering_and_lookup(self):
        catalog = self._catalog()
        assert [l.rank for l in catalog.ordered()] == [2, 1, 0]
        assert catalog.by_name("autonomous").rank == 1
        assert 2 in catalog and 5 not in catalog

    @given(ranks=st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=8, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_ordered_is_sorted_for_any_rank_set(self, ranks):
        catalog = LoSCatalog("f", [LevelOfService(f"l{r}", r) for r in ranks])
        ordered = [l.rank for l in catalog.ordered(descending=False)]
        assert ordered == sorted(ranks)

    def test_ordered_is_a_fresh_list_and_add_reorders(self):
        catalog = self._catalog()
        ordered = catalog.ordered()
        ordered.clear()
        catalog.ordered(descending=False).reverse()
        assert [l.rank for l in catalog.ordered()] == [2, 1, 0]
        catalog.add(LevelOfService("platoon", 5, cooperative=True))
        catalog.add(LevelOfService("assisted", 4))
        assert [l.rank for l in catalog.ordered()] == [5, 4, 2, 1, 0]
        assert [l.rank for l in catalog] == [0, 1, 2, 4, 5]
        assert catalog.descending() == tuple(catalog.ordered())


class _NoTruthValue:
    """A predicate result that raises when tested for truth."""

    def __bool__(self):
        raise ValueError("no truth value")


def snapshot(validities=None, ages=None, health=None, indicators=None, time=0.0):
    return RuntimeSafetyData(
        time=time,
        validities=validities or {},
        ages=ages or {},
        component_health=health or {},
        indicators=indicators or {},
    )


class TestRules:
    def test_validity_rule(self):
        rule = validity_at_least("range", 0.5)
        assert rule.holds(snapshot(validities={"range": 0.8}))
        assert not rule.holds(snapshot(validities={"range": 0.3}))
        assert not rule.holds(snapshot())  # missing data is untrusted

    def test_freshness_rule(self):
        rule = freshness_within("range", 0.3)
        assert rule.holds(snapshot(ages={"range": 0.1}))
        assert not rule.holds(snapshot(ages={"range": 1.0}))
        assert not rule.holds(snapshot())  # missing data is infinitely old

    def test_component_health_rule(self):
        rule = component_healthy("radar")
        assert rule.holds(snapshot(health={"radar": True}))
        assert not rule.holds(snapshot(health={"radar": False}))
        assert not rule.holds(snapshot())

    def test_indicator_rules(self):
        assert indicator_true("stable").holds(snapshot(indicators={"stable": True}))
        assert not indicator_true("stable").holds(snapshot())
        assert indicator_at_most("outage", 0.5).holds(snapshot(indicators={"outage": 0.2}))
        assert not indicator_at_most("outage", 0.5).holds(snapshot(indicators={"outage": 2.0}))

    def test_rule_exception_counts_as_violation(self):
        from repro.core.rules import SafetyRule

        exploding = SafetyRule("boom", predicate=lambda data: 1 / 0)
        assert not exploding.holds(snapshot())

    def test_cumulative_rules_per_rank(self):
        info = DesignTimeSafetyInfo()
        info.add_rule("acc", 1, validity_at_least("range", 0.5))
        info.add_rule("acc", 2, freshness_within("v2v", 0.3))
        assert len(info.rules_for("acc", 1)) == 1
        assert len(info.rules_for("acc", 2)) == 2

    def test_rules_for_is_a_fresh_list_and_a_later_rule_counts(self):
        info = DesignTimeSafetyInfo()
        info.add_rule("acc", 1, validity_at_least("range", 0.5))
        data = snapshot(validities={"range": 0.9, "v2v": 0.1})
        assert info.evaluate("acc", 2, data) == (True, [])
        info.rules_for("acc", 2).clear()
        late = validity_at_least("v2v", 0.5)
        info.add_rule("acc", 2, late)
        assert info.evaluate("acc", 2, data) == (False, [late])
        assert info.evaluate("acc", 1, data) == (True, [])
        assert [rule.name for rule in info.rules_for("acc", 2)] == [
            "validity(range)>=0.5",
            "validity(v2v)>=0.5",
        ]

    def test_a_predicate_without_a_truth_value_is_a_violation(self):
        info = DesignTimeSafetyInfo()
        rule = SafetyRule("no-truth-value", lambda data: _NoTruthValue())
        info.add_rule("acc", 1, rule)
        assert not rule.holds(snapshot())
        assert info.evaluate("acc", 1, snapshot()) == (False, [rule])

    def test_rank_zero_cannot_carry_rules(self):
        info = DesignTimeSafetyInfo()
        with pytest.raises(ValueError):
            info.add_rule("acc", 0, validity_at_least("range", 0.5))

    def test_evaluate_returns_violations(self):
        info = DesignTimeSafetyInfo()
        info.add_rule("acc", 1, validity_at_least("range", 0.5))
        holds, violated = info.evaluate("acc", 1, snapshot(validities={"range": 0.2}))
        assert not holds
        assert violated[0].name.startswith("validity(range)")


class TestRuntimeCollectorAndHealth:
    def test_collector_polls_providers(self):
        collector = RuntimeSafetyCollector()
        collector.provide_validity("range", lambda: 0.9)
        collector.provide_age("range", lambda: 0.05)
        collector.provide_health("radar", lambda: True)
        collector.provide_indicator("members", lambda: 3)
        data = collector.collect(now=1.0)
        assert data.validity("range") == 0.9
        assert data.age("range") == 0.05
        assert data.healthy("radar")
        assert data.indicator("members") == 3

    def test_provider_failures_degrade_not_crash(self):
        collector = RuntimeSafetyCollector()
        collector.provide_validity("range", lambda: 1 / 0)
        collector.provide_health("radar", lambda: 1 / 0)
        data = collector.collect(now=0.0)
        assert data.validity("range") == 0.0
        assert not data.healthy("radar")

    def test_none_validity_treated_as_untrusted(self):
        collector = RuntimeSafetyCollector()
        collector.provide_validity("range", lambda: None)
        assert collector.collect(0.0).validity("range") == 0.0

    def test_component_registry_heartbeats(self):
        registry = ComponentRegistry()
        registry.register("radar", ComponentKind.SENSOR, predictable=True, heartbeat_deadline=0.5)
        registry.heartbeat("radar", 1.0)
        assert registry.is_healthy("radar", 1.2)
        assert not registry.is_healthy("radar", 2.0)

    def test_crash_and_restore(self):
        registry = ComponentRegistry()
        registry.register("ecu", ComponentKind.COMPUTING, predictable=False)
        registry.mark_crashed("ecu")
        assert not registry.is_healthy("ecu", 0.0)
        registry.restore("ecu")
        assert registry.is_healthy("ecu", 0.0)

    def test_timing_fault_cleared_by_heartbeat(self):
        registry = ComponentRegistry()
        registry.register("comm", ComponentKind.COMMUNICATION, predictable=False)
        registry.mark_timing_fault("comm")
        assert registry.get("comm").state is ComponentState.TIMING_FAULT
        registry.heartbeat("comm", 1.0)
        assert registry.is_healthy("comm", 1.0)

    def test_actuators_must_be_predictable(self):
        registry = ComponentRegistry()
        with pytest.raises(ValueError):
            registry.register("brake", ComponentKind.ACTUATOR, predictable=False)

    def test_duplicate_registration_rejected(self):
        registry = ComponentRegistry()
        registry.register("x", ComponentKind.SENSOR, True)
        with pytest.raises(ValueError):
            registry.register("x", ComponentKind.SENSOR, True)

    def test_hybridization_filtering(self):
        registry = ComponentRegistry()
        registry.register("radar", ComponentKind.SENSOR, predictable=True)
        registry.register("wifi", ComponentKind.COMMUNICATION, predictable=False)
        assert [r.name for r in registry.components(predictable=False)] == ["wifi"]


def build_manager(sim, validity_provider, cycle_period=0.1):
    info = DesignTimeSafetyInfo()
    info.add_rule("acc", 1, validity_at_least("range", 0.5))
    info.add_rule("acc", 2, validity_at_least("v2v", 0.5))
    collector = RuntimeSafetyCollector()
    collector.provide_validity("range", lambda: validity_provider()["range"])
    collector.provide_validity("v2v", lambda: validity_provider()["v2v"])
    manager = SafetyManager(sim, info, collector, cycle_period=cycle_period)
    catalog = LoSCatalog(
        "acc",
        [
            LevelOfService("conservative", 0, {"gap": 2.5}),
            LevelOfService("autonomous", 1, {"gap": 1.4}),
            LevelOfService("cooperative", 2, {"gap": 0.6}, cooperative=True),
        ],
    )
    enacted = []
    manager.register_functionality(catalog, enacted.append)
    return manager, enacted


class TestSafetyManager:
    def test_selects_highest_los_whose_rules_hold(self):
        sim = Simulator()
        state = {"range": 1.0, "v2v": 1.0}
        manager, enacted = build_manager(sim, lambda: state)
        manager.start()
        sim.run_until(0.5)
        assert manager.current_los("acc").name == "cooperative"

    def test_downgrade_when_v2v_degrades_and_recovery(self):
        sim = Simulator()
        state = {"range": 1.0, "v2v": 1.0}
        manager, _ = build_manager(sim, lambda: state)
        manager.start()
        sim.run_until(0.5)
        state["v2v"] = 0.0
        sim.run_until(1.0)
        assert manager.current_los("acc").name == "autonomous"
        assert manager.downgrades() >= 1
        state["v2v"] = 1.0
        sim.run_until(1.5)
        assert manager.current_los("acc").name == "cooperative"

    def test_falls_back_to_rank_zero_when_everything_fails(self):
        sim = Simulator()
        state = {"range": 0.0, "v2v": 0.0}
        manager, _ = build_manager(sim, lambda: state)
        manager.start()
        sim.run_until(0.5)
        assert manager.current_los("acc").rank == 0

    def test_initial_enactment_uses_fallback(self):
        sim = Simulator()
        _, enacted = build_manager(sim, lambda: {"range": 1.0, "v2v": 1.0})
        assert enacted[0].rank == 0

    def test_cycle_interval_bounded(self):
        sim = Simulator()
        manager, _ = build_manager(sim, lambda: {"range": 1.0, "v2v": 1.0}, cycle_period=0.1)
        manager.start()
        sim.run_until(5.0)
        assert manager.cycles >= 49
        assert manager.max_observed_cycle_interval <= 0.1 + 1e-9

    def test_switch_latency_recorded_and_bounded(self):
        sim = Simulator()
        state = {"range": 1.0, "v2v": 1.0}
        manager, _ = build_manager(sim, lambda: state)
        manager.start()
        sim.run_until(0.5)
        state["v2v"] = 0.0
        sim.run_until(1.0)
        assert manager.switch_latencies
        assert manager.max_switch_latency() <= manager.switch_bound

    @pytest.mark.parametrize("period", [float("nan"), float("inf"), float("-inf"), 0])
    def test_cycle_period_must_be_positive_and_finite(self, period):
        # A NaN cycle period once ran every cycle at t=0, forever.
        sim = Simulator()
        with pytest.raises(ValueError, match="positive and finite"):
            build_manager(sim, lambda: {"range": 1.0, "v2v": 1.0}, cycle_period=period)
        with pytest.raises(ValueError, match="positive and finite"):
            SafetyKernel("veh1", sim, cycle_period=period)

    def test_los_residency_accounting(self):
        sim = Simulator()
        state = {"range": 1.0, "v2v": 1.0}
        manager, _ = build_manager(sim, lambda: state)
        manager.start()
        sim.run_until(1.0)
        residency = manager.los_residency()["acc"]
        assert residency.get("cooperative", 0) > 0


class TestSafetyKernelFacade:
    def test_kernel_wires_sensor_and_selects_los(self):
        sim = Simulator()
        kernel = SafetyKernel("veh1", sim, cycle_period=0.1)

        class FakeSensor:
            last_reading = None

        sensor = FakeSensor()
        kernel.monitor_sensor("range", sensor)
        catalog = LoSCatalog(
            "acc",
            [LevelOfService("conservative", 0), LevelOfService("autonomous", 1)],
        )
        active = []
        kernel.define_functionality(
            catalog, active.append, rules_by_rank={1: [validity_at_least("range", 0.5)]}
        )
        kernel.start()
        sim.run_until(0.5)
        assert kernel.current_los("acc").rank == 0  # no reading yet -> untrusted

        from repro.sensors.readings import SensorReading

        sensor.last_reading = SensorReading(quantity="range", value=10.0, timestamp=sim.now, validity=0.9)
        sim.run_until(1.0)
        assert kernel.current_los("acc").rank == 1

    def test_component_registration_feeds_health(self):
        sim = Simulator()
        kernel = SafetyKernel("veh1", sim)
        kernel.register_component("radar", ComponentKind.SENSOR, predictable=True,
                                  heartbeat_deadline=0.5)
        kernel.components.heartbeat("radar", 0.0)
        data = kernel.collector.collect(0.1)
        assert data.healthy("radar")
        report = kernel.hybridization_report()
        assert "radar" in report["predictable"]

    def test_summary_fields(self):
        sim = Simulator()
        kernel = SafetyKernel("veh1", sim)
        catalog = LoSCatalog("f", [LevelOfService("only", 0)])
        kernel.define_functionality(catalog, lambda level: None)
        kernel.start()
        sim.run_until(1.0)
        summary = kernel.summary()
        assert summary["vehicle"] == "veh1"
        assert summary["current_los"]["f"] == "only"
        assert summary["cycles"] > 0


# ----------------------------------------------------------------------------
# The cycle against a reference: the safety-manager cycle as first written,
# which sorted the catalog, rebuilt each rank's cumulative rule list and kept
# every decision in a list on every cycle.  The manager resolves those
# design-time facts once, so for any catalog, rule set and provider values,
# cycle by cycle, it must decide, trace and enact exactly as this does.

_RAISE = object()
_NAN = float("nan")
_ITEMS = ("range", "v2v", "unpolled")
_COMPONENTS = ("radar", "radio")
_INDICATORS = ("stable", "gap")


def _raising_predicate(data):
    raise RuntimeError("monitor crashed")


class _ReferenceManager:
    """The first safety-manager cycle, kept here as the oracle."""

    def __init__(self, simulator, trace):
        self.simulator = simulator
        self.trace = trace
        self.rules = {}
        self.levels = {}
        self.enactors = {}
        self.current = {}
        self.providers = {"validity": {}, "age": {}, "health": {}, "indicator": {}}
        self.decisions = []

    def add_rule(self, functionality, rank, rule):
        self.rules.setdefault((functionality, rank), []).append(rule)

    def rules_for(self, functionality, rank):
        rules = []
        for level in range(1, rank + 1):
            rules.extend(self.rules.get((functionality, level), []))
        return rules

    def register(self, functionality, levels, enactor, initial_rank):
        self.levels[functionality] = {level.rank: level for level in levels}
        self.enactors[functionality] = enactor
        initial = self.levels[functionality][initial_rank or 0]
        self.current[functionality] = initial
        enactor(initial)

    @staticmethod
    def _safe_float(provider, default):
        try:
            value = provider()
        except Exception:
            return default
        if value is None:
            return default
        return float(value)

    def collect(self, now):
        providers = self.providers
        validities = {
            item: self._safe_float(provider, default=0.0)
            for item, provider in providers["validity"].items()
        }
        ages = {
            item: self._safe_float(provider, default=float("inf"))
            for item, provider in providers["age"].items()
        }
        health = {}
        for component, provider in providers["health"].items():
            try:
                health[component] = bool(provider())
            except Exception:
                health[component] = False
        indicators = {}
        for name, provider in providers["indicator"].items():
            try:
                indicators[name] = provider()
            except Exception:
                indicators[name] = None
        return RuntimeSafetyData(
            time=now,
            validities=validities,
            ages=ages,
            component_health=health,
            indicators=indicators,
        )

    def run_cycle(self):
        now = self.simulator.now
        snapshot = self.collect(now)
        decisions = []
        for functionality, levels in self.levels.items():
            decision = self._evaluate(functionality, levels, snapshot, now)
            decisions.append(decision)
            if decision.changed:
                self._enact(decision)
        return decisions

    def _evaluate(self, functionality, levels, snapshot, now):
        previous = self.current.get(functionality)
        violated_by_rank = {}
        selected = levels[0]
        for rank in sorted(levels, reverse=True):
            level = levels[rank]
            if rank == 0:
                selected = level
                break
            violated = [
                rule for rule in self.rules_for(functionality, rank) if not rule.holds(snapshot)
            ]
            if not violated:
                selected = level
                break
            violated_by_rank[rank] = [rule.name for rule in violated]
        decision = LoSDecision(
            functionality=functionality,
            time=now,
            selected=selected,
            previous=previous,
            violated_rules=violated_by_rank,
        )
        self.decisions.append(decision)
        self.trace.record(
            now,
            "los_decision",
            f"safety-manager:{functionality}",
            selected=selected.name,
            rank=selected.rank,
            changed=decision.changed,
            downgrade=decision.is_downgrade,
            violated={rank: names for rank, names in violated_by_rank.items()},
        )
        return decision

    def _enact(self, decision):
        start = self.simulator.now
        self.enactors[decision.functionality](decision.selected)
        self.current[decision.functionality] = decision.selected
        self.trace.record(
            start,
            "los_switch",
            f"safety-manager:{decision.functionality}",
            to=decision.selected.name,
            rank=decision.selected.rank,
            latency=self.simulator.now - start,
            downgrade=decision.is_downgrade,
        )

    def downgrades(self):
        return sum(1 for decision in self.decisions if decision.is_downgrade)

    def los_residency(self):
        residency = {}
        for decision in self.decisions:
            per_func = residency.setdefault(decision.functionality, {})
            per_func[decision.selected.name] = per_func.get(decision.selected.name, 0) + 1
        return residency


_rules = st.one_of(
    st.builds(validity_at_least, st.sampled_from(_ITEMS), st.sampled_from([0.0, 0.5, 0.9])),
    st.builds(freshness_within, st.sampled_from(_ITEMS), st.sampled_from([0.1, 1.0])),
    st.builds(component_healthy, st.sampled_from(_COMPONENTS)),
    st.builds(indicator_true, st.sampled_from(_INDICATORS)),
    st.builds(indicator_at_least, st.sampled_from(_INDICATORS), st.sampled_from([1.0, 3.0])),
    st.builds(indicator_at_most, st.sampled_from(_INDICATORS), st.sampled_from([1.0, 3.0])),
    st.just(SafetyRule("raises", _raising_predicate)),
    st.just(SafetyRule("no-truth-value", lambda data: _NoTruthValue())),
)

#: Per provider kind: the names it may cover and the values it may return
#: (``_RAISE``: the provider raises).
_PROVIDERS = {
    "validity": (_ITEMS[:2], [0.0, 0.4, 0.9, 1.0, None, _NAN, _RAISE]),
    "age": (_ITEMS[:2], [0.0, 0.05, 0.5, 3.0, None, _NAN, _RAISE]),
    "health": (_COMPONENTS, [True, False, _RAISE]),
    "indicator": (_INDICATORS, [True, False, 0.0, 2.5, 9.0, None, _NAN, _RAISE]),
}


@st.composite
def _kernel_histories(draw):
    """Catalogs, rules, providers and a sequence of cycles and late changes."""
    catalogs = []
    for functionality in draw(st.sampled_from([("acc",), ("acc", "lane")])):
        ranks = draw(st.lists(st.integers(1, 6), max_size=3, unique=True))
        levels = [LevelOfService(f"{functionality}-0", 0)] + [
            LevelOfService(f"{functionality}-{rank}", rank, cooperative=rank % 2 == 0)
            for rank in ranks
        ]
        initial = draw(st.sampled_from([None] + ranks))
        rules = draw(st.lists(st.tuples(st.integers(1, 6), _rules), max_size=6))
        catalogs.append((functionality, levels, initial, rules))
    providers = []
    for kind, (names, values) in _PROVIDERS.items():
        for name in draw(st.lists(st.sampled_from(names), unique=True)):
            sequence = draw(st.lists(st.sampled_from(values), min_size=1, max_size=4))
            providers.append((kind, name, sequence))
    functionalities = [functionality for functionality, *_ in catalogs]
    step = st.one_of(
        st.just(("cycle",)),
        st.tuples(st.just("rule"), st.sampled_from(functionalities), st.integers(1, 6), _rules),
        st.tuples(st.just("level"), st.sampled_from(functionalities), st.integers(1, 6)),
    )
    steps = [("cycle",)] + draw(st.lists(step, min_size=1, max_size=14))
    traced = draw(st.booleans())
    return catalogs, providers, steps, traced


def _trace_rows(trace):
    return [(r.time, r.kind, r.source, list(r.fields.items())) for r in trace]


def _nested_items(residency):
    return [(functionality, list(counts.items())) for functionality, counts in residency.items()]


class TestCycleAgainstReference:
    @given(history=_kernel_histories())
    @settings(max_examples=120, deadline=None)
    def test_manager_decides_traces_and_enacts_as_the_reference(self, history):
        catalogs, providers, steps, traced = history
        sim = Simulator()
        clock = {"cycle": 0}

        def provider(sequence):
            def poll():
                value = sequence[clock["cycle"] % len(sequence)]
                if value is _RAISE:
                    raise RuntimeError("provider failed")
                return value

            return poll

        info = DesignTimeSafetyInfo()
        collector = RuntimeSafetyCollector()
        manager = SafetyManager(sim, info, collector, trace=TraceRecorder(enabled=traced))
        reference = _ReferenceManager(sim, TraceRecorder(enabled=traced))
        register = {
            "validity": collector.provide_validity,
            "age": collector.provide_age,
            "health": collector.provide_health,
            "indicator": collector.provide_indicator,
        }
        for kind, name, sequence in providers:
            register[kind](name, provider(sequence))
            reference.providers[kind][name] = provider(sequence)
        enacted, reference_enacted = [], []
        catalog_of = {}
        for functionality, levels, initial, rules in catalogs:
            for rank, rule in rules:
                info.add_rule(functionality, rank, rule)
                reference.add_rule(functionality, rank, rule)
            catalog_of[functionality] = catalog = LoSCatalog(functionality, levels)
            manager.register_functionality(
                catalog,
                lambda level, f=functionality: enacted.append((f, level, sim.now)),
                initial_rank=initial,
            )
            reference.register(
                functionality,
                levels,
                lambda level, f=functionality: reference_enacted.append((f, level, sim.now)),
                initial,
            )

        for step in steps:
            if step[0] == "rule":
                _, functionality, rank, rule = step
                info.add_rule(functionality, rank, rule)
                reference.add_rule(functionality, rank, rule)
                continue
            if step[0] == "level":
                _, functionality, rank = step
                if rank not in catalog_of[functionality]:
                    level = LevelOfService(f"{functionality}-late-{rank}", rank)
                    catalog_of[functionality].add(level)
                    reference.levels[functionality][rank] = level
                continue
            sim.run_until(sim.now + 0.1)
            decisions = manager.run_cycle()
            expected = reference.run_cycle()
            clock["cycle"] += 1
            assert [
                (d.functionality, d.time, d.selected, d.previous, d.violated_rules)
                for d in decisions
            ] == [
                (d.functionality, d.time, d.selected, d.previous, d.violated_rules)
                for d in expected
            ]
            assert _trace_rows(manager.trace) == _trace_rows(reference.trace)
            assert manager.downgrades() == reference.downgrades()
            assert _nested_items(manager.los_residency()) == _nested_items(
                reference.los_residency()
            )
            assert enacted == reference_enacted
        assert manager.cycles == clock["cycle"]
        assert len(manager.trace) == (len(reference.trace) if traced else 0)
