"""Sensor readings and their attributes.

The paper's MOSAIC components exchange "typed message objects called events,
including the respective sensor data and additional attributes like position,
timestamps, validity estimation" (section IV-B).  :class:`SensorReading` is the
in-library representation of such a data set; the middleware wraps it into an
event when it crosses node boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple


@dataclass(frozen=True)
class ReadingAttributes:
    """Context attributes attached to a reading (paper Fig 5: attributes)."""

    position: Optional[Tuple[float, ...]] = None
    source_id: str = ""
    sequence: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class SensorReading:
    """A single continuous-valued measurement with its validity estimate.

    Parameters
    ----------
    quantity:
        Name of the measured quantity (e.g. ``"range"``, ``"speed"``).
    value:
        The measured value.
    timestamp:
        Simulated acquisition time.
    validity:
        Data validity in ``[0, 1]`` (1.0 = fully trusted).  The paper's
        fault-management unit "calculates a general validity value between 0
        and 100%"; we use the 0..1 scale internally.
    error_bound:
        Half-width of the symmetric interval believed to contain the true
        value (used by Marzullo interval fusion).
    attributes:
        Context attributes (position, source, sequence number, ...).
    """

    quantity: str
    value: float
    timestamp: float
    validity: float = 1.0
    error_bound: float = 0.0
    attributes: ReadingAttributes = field(default_factory=ReadingAttributes)

    def __post_init__(self) -> None:
        if not 0.0 <= self.validity <= 1.0:
            raise ValueError(f"validity must be in [0, 1], got {self.validity}")
        # Written so that NaN fails: a NaN bound would poison every interval
        # fused from this reading.
        if not self.error_bound >= 0.0:
            raise ValueError(f"error_bound must be >= 0, got {self.error_bound}")

    @property
    def interval(self) -> Tuple[float, float]:
        """The ``[value - error_bound, value + error_bound]`` interval."""
        return (self.value - self.error_bound, self.value + self.error_bound)

    @property
    def is_valid(self) -> bool:
        """True when validity is strictly positive."""
        return self.validity > 0.0

    def with_validity(self, validity: float) -> "SensorReading":
        """Return a copy carrying a new validity estimate.

        A fully trusted reading asked to stay fully trusted is returned as
        is: that is the clean per-sample path.  The shortcut is limited to an
        exact float ``1.0`` on both sides, because a general ``==`` would
        also equate ``-0.0`` with ``0.0`` (or ``1`` with ``1.0``) and hand
        back a validity that serialises differently from the copy.
        """
        current = self.validity
        if validity == 1.0 and current == 1.0 and type(current) is float:
            return self
        # Direct construction: same semantics as dataclasses.replace (the
        # validators in __post_init__ still run) at a fraction of the cost.
        return SensorReading(
            self.quantity,
            self.value,
            self.timestamp,
            float(min(1.0, max(0.0, validity))),
            self.error_bound,
            self.attributes,
        )

    def with_value(self, value: float) -> "SensorReading":
        """Return a copy carrying a new value (used by fault injection)."""
        return SensorReading(
            quantity=self.quantity,
            value=float(value),
            timestamp=self.timestamp,
            validity=self.validity,
            error_bound=self.error_bound,
            attributes=self.attributes,
        )

    def age(self, now: float) -> float:
        """Age of the reading at simulated time ``now``."""
        return max(0.0, now - self.timestamp)

    def is_fresh(self, now: float, max_age: float) -> bool:
        """Whether the reading is younger than ``max_age`` at time ``now``."""
        return self.age(now) <= max_age
