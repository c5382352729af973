"""Run Time Safety Information.

Section III: "The periodically collected information is represented in the
architecture by the Run Time Safety Information component, which also
abstracts the concrete mechanisms that must be put in place to do this
information collection (which will include, for instance, failure detectors
for detecting timing faults)."

:class:`RuntimeSafetyCollector` polls registered *providers* (sensor validity
suppliers, component health reporters, communication-state monitors) each
safety-kernel cycle and produces an immutable :class:`RuntimeSafetyData`
snapshot against which the safety rules are evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional

_INF = float("inf")


@dataclass(frozen=True)
class RuntimeSafetyData:
    """An immutable snapshot of the run-time safety indicators.

    * ``validities`` — data validity per named data item (0..1).
    * ``ages`` — data age in seconds per named data item.
    * ``component_health`` — True/False per component name.
    * ``indicators`` — any other scalar/boolean indicators (membership
      stability, inaccessibility duration, channel quality, ...).
    """

    time: float
    validities: Mapping[str, float] = field(default_factory=dict)
    ages: Mapping[str, float] = field(default_factory=dict)
    component_health: Mapping[str, bool] = field(default_factory=dict)
    indicators: Mapping[str, Any] = field(default_factory=dict)

    def validity(self, item: str, default: float = 0.0) -> float:
        """Validity of a data item; missing items default to 0 (untrusted)."""
        return float(self.validities.get(item, default))

    def age(self, item: str, default: float = float("inf")) -> float:
        """Age of a data item; missing items default to infinitely old."""
        return float(self.ages.get(item, default))

    def healthy(self, component: str) -> bool:
        """Health of a component; unknown components are considered unhealthy."""
        return bool(self.component_health.get(component, False))

    def indicator(self, name: str, default: Any = None) -> Any:
        return self.indicators.get(name, default)


class RuntimeSafetyCollector:
    """Collects run-time safety information from registered providers."""

    def __init__(self):
        self._validity_providers: Dict[str, Callable[[], Optional[float]]] = {}
        self._age_providers: Dict[str, Callable[[], Optional[float]]] = {}
        self._health_providers: Dict[str, Callable[[], bool]] = {}
        self._indicator_providers: Dict[str, Callable[[], Any]] = {}
        self.collections = 0

    # --------------------------------------------------------------- registration
    def provide_validity(self, item: str, provider: Callable[[], Optional[float]]) -> None:
        """Register a provider returning the current validity of ``item``."""
        self._validity_providers[item] = provider

    def provide_age(self, item: str, provider: Callable[[], Optional[float]]) -> None:
        """Register a provider returning the current age of ``item``."""
        self._age_providers[item] = provider

    def provide_health(self, component: str, provider: Callable[[], bool]) -> None:
        """Register a provider returning the health of ``component``."""
        self._health_providers[component] = provider

    def provide_indicator(self, name: str, provider: Callable[[], Any]) -> None:
        """Register an arbitrary indicator provider."""
        self._indicator_providers[name] = provider

    # ------------------------------------------------------------------- collect
    def collect(self, now: float) -> RuntimeSafetyData:
        """Poll every provider and build a snapshot.

        Provider exceptions are treated as missing data (validity 0 / age
        infinity / unhealthy), never propagated: a failing monitor must
        degrade the LoS, not crash the safety kernel.  A validity or age
        provider returning ``None`` is missing data too.
        """
        self.collections += 1
        validities: Dict[str, float] = {}
        ages: Dict[str, float] = {}
        health: Dict[str, bool] = {}
        indicators: Dict[str, Any] = {}
        # The provider calls are inlined: this runs once per safety-kernel
        # cycle for every provider.
        for item, provider in self._validity_providers.items():
            try:
                value = provider()
            except Exception:
                value = None
            validities[item] = 0.0 if value is None else float(value)
        for item, provider in self._age_providers.items():
            try:
                value = provider()
            except Exception:
                value = None
            ages[item] = _INF if value is None else float(value)
        for component, provider in self._health_providers.items():
            try:
                health[component] = bool(provider())
            except Exception:
                health[component] = False
        for name, provider in self._indicator_providers.items():
            try:
                indicators[name] = provider()
            except Exception:
                indicators[name] = None
        return RuntimeSafetyData(now, validities, ages, health, indicators)
