"""The Safety Manager.

Section III: "the Safety Manager is the component that triggers changes in
the operation of the nominal system components in order to adjust the LoS as
necessary. ... The safety manager will periodically check the run time safety
data against safety rules and make the necessary adjustments in the nominal
system components.  Upper bounds on the time needed to perform each cycle
will be known at design time ... arguing about safety can only be done if the
time needed to switch between any two LoS of some functionality is known and
bounded."

The manager therefore records, per cycle, how long the cycle took (in
simulated time, via the scheduler's observed period) and how long each LoS
switch took to become effective, so the E1/E9 experiments can assert the
bounded-cycle and bounded-switch claims.

Hot-path notes: every vehicle runs one cycle per ``cycle_period`` for the
whole simulation, so a cycle pays only for the run-time evidence it
evaluates.

* Resolved once, at design time: each catalog's levels in descending rank
  order (:meth:`LoSCatalog.descending`, reset by ``add``) and each
  ``(functionality, rank)``'s cumulative rules, kept as a tuple by
  :class:`~repro.core.rules.DesignTimeSafetyInfo` and dropped by
  ``add_rule``; so a level or rule added after :meth:`SafetyManager.start`
  still counts from the next cycle on.  The cycle period is checked once,
  at construction, so :class:`~repro.sim.kernel.PeriodicTask` re-arms an
  unjittered cycle at ``now + period``.
* Per cycle: one provider call each (inlined in
  :meth:`RuntimeSafetyCollector.collect`), one predicate call per rule of
  each rank tried, highest first, until one holds, and one
  :class:`LoSDecision` per functionality.
* Decisions are not kept: :meth:`SafetyManager.downgrades` and
  :meth:`SafetyManager.los_residency` read running counters, whose keys
  keep their first-seen order.  The ``los_decision`` fields are built only
  when the trace is enabled.

None of this moves a decision, a trace record (fields and their order), an
RNG draw or an event, so the stores made from a run stay byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.los import LevelOfService, LoSCatalog
from repro.core.rules import DesignTimeSafetyInfo, SafetyRule
from repro.core.runtime_data import RuntimeSafetyCollector, RuntimeSafetyData
from repro.sim.kernel import PeriodicTask, Simulator
from repro.sim.trace import TraceRecorder


@dataclass
class LoSDecision:
    """Outcome of one safety-manager evaluation for one functionality."""

    functionality: str
    time: float
    selected: LevelOfService
    previous: Optional[LevelOfService]
    violated_rules: Dict[int, List[str]] = field(default_factory=dict)

    @property
    def changed(self) -> bool:
        return self.previous is None or self.previous.rank != self.selected.rank

    @property
    def is_downgrade(self) -> bool:
        return self.previous is not None and self.selected.rank < self.previous.rank


class SafetyManager:
    """Periodic rule evaluation and LoS enforcement for all functionalities."""

    def __init__(
        self,
        simulator: Simulator,
        design_info: DesignTimeSafetyInfo,
        collector: RuntimeSafetyCollector,
        cycle_period: float = 0.1,
        switch_bound: float = 0.2,
        trace: Optional[TraceRecorder] = None,
        jitter_fn: Optional[Callable[[], float]] = None,
    ):
        if not 0 < cycle_period < float("inf"):
            raise ValueError(f"cycle_period must be positive and finite, got {cycle_period}")
        self.simulator = simulator
        self.design_info = design_info
        self.collector = collector
        self.cycle_period = cycle_period
        self.switch_bound = switch_bound
        self.trace = trace or TraceRecorder(enabled=False)
        self.jitter_fn = jitter_fn
        self._catalogs: Dict[str, LoSCatalog] = {}
        self._enactors: Dict[str, Callable[[LevelOfService], None]] = {}
        self._current: Dict[str, LevelOfService] = {}
        self._task: Optional[PeriodicTask] = None
        self.cycles = 0
        #: Running tallies of every decision (downgrades(), los_residency()).
        self._downgrades = 0
        self._residency: Dict[str, Dict[str, int]] = {}
        self.switch_latencies: List[float] = []
        self.last_snapshot: Optional[RuntimeSafetyData] = None

    # ------------------------------------------------------------- registration
    def register_functionality(
        self,
        catalog: LoSCatalog,
        enactor: Callable[[LevelOfService], None],
        initial_rank: Optional[int] = None,
    ) -> None:
        """Register a functionality with its LoS catalog and enactment callback.

        The enactor reconfigures the nominal components for the selected LoS;
        it is invoked once at registration (with the fallback or the requested
        initial rank) and at every LoS change afterwards.
        """
        catalog.validate()
        name = catalog.functionality
        self._catalogs[name] = catalog
        self._enactors[name] = enactor
        initial = catalog.by_rank(initial_rank) if initial_rank is not None else catalog.fallback
        self._current[name] = initial
        enactor(initial)

    def current_los(self, functionality: str) -> LevelOfService:
        return self._current[functionality]

    def functionalities(self) -> List[str]:
        return sorted(self._catalogs)

    # --------------------------------------------------------------------- run
    def start(self, initial_delay: float = 0.0) -> None:
        """Start the periodic safety-manager cycle."""
        if self._task is not None:
            return
        self._task = PeriodicTask(
            self.simulator,
            self.cycle_period,
            self.run_cycle,
            name="safety-manager",
            jitter_fn=self.jitter_fn,
        )
        self._task.start(initial_delay)

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()
            self._task = None

    @property
    def max_observed_cycle_interval(self) -> float:
        """Largest interval observed between consecutive cycles (bounded-cycle check)."""
        return self._task.max_observed_interval if self._task else 0.0

    def run_cycle(self) -> List[LoSDecision]:
        """One safety-manager cycle: collect, evaluate, enact."""
        now = self.simulator.now
        self.cycles += 1
        snapshot = self.collector.collect(now)
        self.last_snapshot = snapshot
        return [
            self._evaluate(functionality, catalog, snapshot, now)
            for functionality, catalog in self._catalogs.items()
        ]

    # --------------------------------------------------------------- internals
    def _evaluate(
        self,
        functionality: str,
        catalog: LoSCatalog,
        snapshot: RuntimeSafetyData,
        now: float,
    ) -> LoSDecision:
        """Select, record and (on a change) enact one functionality's LoS."""
        previous = self._current.get(functionality)
        violated_by_rank: Dict[int, List[str]] = {}
        evaluate = self.design_info.evaluate
        # A registered catalog has a rank-0 level, and it comes last, so the
        # loop always breaks: ``level`` is the selected LoS.
        for level in catalog.descending():
            rank = level.rank
            if rank == 0:
                break
            holds, violated = evaluate(functionality, rank, snapshot)
            if holds:
                break
            violated_by_rank[rank] = [rule.name for rule in violated]
        selected = level
        if previous is None:
            changed, downgrade = True, False
        else:
            changed = previous.rank != selected.rank
            downgrade = selected.rank < previous.rank
        if downgrade:
            self._downgrades += 1
        residency = self._residency.get(functionality)
        if residency is None:
            residency = self._residency[functionality] = {}
        name = selected.name
        residency[name] = residency.get(name, 0) + 1
        trace = self.trace
        if trace.enabled:
            trace.record(
                now,
                "los_decision",
                f"safety-manager:{functionality}",
                selected=name,
                rank=selected.rank,
                changed=changed,
                downgrade=downgrade,
                violated=dict(violated_by_rank),
            )
        if changed:
            self._enact(functionality, selected, downgrade)
        return LoSDecision(functionality, now, selected, previous, violated_by_rank)

    def _enact(self, functionality: str, selected: LevelOfService, downgrade: bool) -> None:
        start = self.simulator.now
        self._enactors[functionality](selected)
        self._current[functionality] = selected
        latency = self.simulator.now - start
        # Enactment is synchronous in this implementation, so the switch
        # latency is bounded by the cycle period plus the (zero) enactment
        # time; we still record it to make the bounded-switch argument
        # explicit and checkable.
        self.switch_latencies.append(latency)
        self.trace.record(
            start,
            "los_switch",
            f"safety-manager:{functionality}",
            to=selected.name,
            rank=selected.rank,
            latency=latency,
            downgrade=downgrade,
        )

    # ----------------------------------------------------------------- queries
    def max_switch_latency(self) -> float:
        return max(self.switch_latencies) if self.switch_latencies else 0.0

    def downgrades(self) -> int:
        """Decisions that selected a lower rank than the current one."""
        return self._downgrades

    def los_residency(self) -> Dict[str, Dict[str, int]]:
        """Per functionality: number of cycles spent at each LoS name.

        Functionalities and names appear in the order they were first
        decided, so the result (and any store JSON made from it) keeps one
        key order for a given run.
        """
        return {
            functionality: dict(counts)
            for functionality, counts in self._residency.items()
        }
