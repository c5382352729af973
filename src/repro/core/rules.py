"""Design Time Safety Information: safety rules per Level of Service.

Section III: "The Design Time Safety Information component holds a set of
predefined safety rules establishing the conditions for functional safety
assurance in each LoS. ... These safety rules express the needed validity of
(sensor) data and integrity of components (e.g., timeliness requirements)."

A :class:`SafetyRule` is a named predicate over a
:class:`~repro.core.runtime_data.RuntimeSafetyData` snapshot.  The helper
constructors cover the rule shapes the paper names explicitly: data-validity
thresholds, data-freshness (timeliness) bounds and component-integrity
requirements; ``indicator_*`` rules cover communication-state conditions such
as membership stability or bounded inaccessibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.runtime_data import RuntimeSafetyData


@dataclass(frozen=True)
class SafetyRule:
    """A single design-time safety rule."""

    name: str
    predicate: Callable[[RuntimeSafetyData], bool]
    description: str = ""
    #: Safety goal this rule contributes to (for traceability / ISO 26262).
    safety_goal: str = ""

    def holds(self, data: RuntimeSafetyData) -> bool:
        """Evaluate the rule; provider errors count as a violation."""
        try:
            return bool(self.predicate(data))
        except Exception:
            return False


def validity_at_least(item: str, threshold: float, safety_goal: str = "") -> SafetyRule:
    """Rule: the data validity of ``item`` must be at least ``threshold``."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must be in [0, 1]")
    return SafetyRule(
        name=f"validity({item})>={threshold:g}",
        predicate=lambda data: data.validity(item) >= threshold,
        description=f"data validity of {item} must be >= {threshold:g}",
        safety_goal=safety_goal,
    )


def freshness_within(item: str, max_age: float, safety_goal: str = "") -> SafetyRule:
    """Rule: the age of ``item`` must not exceed ``max_age`` seconds."""
    if max_age <= 0:
        raise ValueError("max_age must be positive")
    return SafetyRule(
        name=f"age({item})<={max_age:g}",
        predicate=lambda data: data.age(item) <= max_age,
        description=f"{item} must be fresher than {max_age:g}s",
        safety_goal=safety_goal,
    )


def component_healthy(component: str, safety_goal: str = "") -> SafetyRule:
    """Rule: ``component`` must be healthy (no crash/timing failure)."""
    return SafetyRule(
        name=f"healthy({component})",
        predicate=lambda data: data.healthy(component),
        description=f"component {component} must be healthy",
        safety_goal=safety_goal,
    )


def indicator_true(name: str, safety_goal: str = "") -> SafetyRule:
    """Rule: a boolean indicator (e.g. membership stability) must be true."""
    return SafetyRule(
        name=f"indicator({name})",
        predicate=lambda data: bool(data.indicator(name, False)),
        description=f"indicator {name} must be true",
        safety_goal=safety_goal,
    )


def indicator_at_least(name: str, threshold: float, safety_goal: str = "") -> SafetyRule:
    """Rule: a numeric indicator must be at least ``threshold``."""
    return SafetyRule(
        name=f"indicator({name})>={threshold:g}",
        predicate=lambda data: _as_float(data.indicator(name)) >= threshold,
        description=f"indicator {name} must be >= {threshold:g}",
        safety_goal=safety_goal,
    )


def indicator_at_most(name: str, threshold: float, safety_goal: str = "") -> SafetyRule:
    """Rule: a numeric indicator must be at most ``threshold``."""
    return SafetyRule(
        name=f"indicator({name})<={threshold:g}",
        predicate=lambda data: _as_float(data.indicator(name), default=float("inf")) <= threshold,
        description=f"indicator {name} must be <= {threshold:g}",
        safety_goal=safety_goal,
    )


def _as_float(value, default: float = float("-inf")) -> float:
    if value is None:
        return default
    try:
        return float(value)
    except (TypeError, ValueError):
        return default


class DesignTimeSafetyInfo:
    """The per-functionality, per-LoS rule sets fixed at design time.

    Each ``(functionality, rank)``'s cumulative rule list is resolved once,
    on its first use, and kept as a tuple until :meth:`add_rule` changes the
    rule set, so a safety-manager cycle does not rebuild it.
    """

    def __init__(self):
        #: (functionality, rank) -> list of rules that must ALL hold for that LoS.
        self._rules: Dict[Tuple[str, int], List[SafetyRule]] = {}
        #: (functionality, rank) -> the rules of ranks 1..rank (see rules_for).
        self._cumulative: Dict[Tuple[str, int], Tuple[SafetyRule, ...]] = {}

    def add_rule(self, functionality: str, rank: int, rule: SafetyRule) -> None:
        """Attach ``rule`` to the given functionality and LoS rank.

        Rank 0 must remain unconditionally safe; attaching rules to it is
        rejected so the fallback LoS can never become unreachable.
        """
        if rank == 0:
            raise ValueError("the rank-0 LoS is unconditionally safe; it cannot carry rules")
        self._rules.setdefault((functionality, rank), []).append(rule)
        self._cumulative.clear()

    def add_rules(self, functionality: str, rank: int, rules: Sequence[SafetyRule]) -> None:
        for rule in rules:
            self.add_rule(functionality, rank, rule)

    def _resolved(self, functionality: str, rank: int) -> Tuple[SafetyRule, ...]:
        key = (functionality, rank)
        rules = self._cumulative.get(key)
        if rules is None:
            rules = self._cumulative[key] = tuple(
                rule
                for level in range(1, rank + 1)
                for rule in self._rules.get((functionality, level), ())
            )
        return rules

    def rules_for(self, functionality: str, rank: int) -> List[SafetyRule]:
        """Rules that must hold for ``functionality`` to run at LoS ``rank``.

        The conditions are cumulative: running at rank *r* requires the rules
        of every rank from 1 up to *r* to hold (a higher LoS is at least as
        demanding as the levels below it).
        """
        return list(self._resolved(functionality, rank))

    def evaluate(
        self, functionality: str, rank: int, data: RuntimeSafetyData
    ) -> Tuple[bool, List[SafetyRule]]:
        """Evaluate all rules for a LoS; returns (all_hold, violated_rules).

        A rule holds as :meth:`SafetyRule.holds` says: a predicate that
        raises, or whose result has no truth value, is a violation.
        """
        violated: List[SafetyRule] = []
        for rule in self._resolved(functionality, rank):
            try:
                if rule.predicate(data):
                    continue
            except Exception:
                pass
            violated.append(rule)
        return (not violated, violated)

    def functionalities(self) -> List[str]:
        return sorted({functionality for functionality, _rank in self._rules})
