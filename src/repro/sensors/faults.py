"""Sensor fault classes.

Section IV-A: "In KARYON we performed a failure mode analysis for different
sensors and identified several fault modes that were categorized along five
main dimensions: delay faults, sporadic offset faults, permanent offset
faults, stochastic offset faults and stuck-at faults."

Each fault class transforms a correct reading into a faulty one; the fault
injector (:mod:`repro.sensors.injector`) decides *when* a fault is active.

Block forms: every fault that cannot drop a sample (all but a delay
fault with a drop probability) leaves a physical sensor a block form
(:attr:`SensorFault.may_drop`).  The RNG-silent ones (stuck-at, permanent
offset, delay without drops) also corrupt a whole value array at once
(:meth:`SensorFault.apply_block`); the others are applied per instant.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.sensors.readings import SensorReading


class FaultClass(enum.Enum):
    """The paper's five sensor-fault dimensions."""

    DELAY = "delay"
    SPORADIC_OFFSET = "sporadic_offset"
    PERMANENT_OFFSET = "permanent_offset"
    STOCHASTIC_OFFSET = "stochastic_offset"
    STUCK_AT = "stuck_at"


@dataclass
class SensorFault:
    """Base class for sensor faults.

    Subclasses override :meth:`apply` to corrupt a reading and may keep state
    across readings (e.g. the frozen value of a stuck-at fault).
    """

    def fault_class(self) -> FaultClass:
        raise NotImplementedError

    @property
    def draws_rng(self) -> bool:
        """Whether :meth:`apply` may consume values from the shared RNG.

        Deterministic faults (stuck-at, permanent offset) return ``False``,
        which lets the physical sensor keep pre-drawing its measurement noise
        in batches: interleaved fault draws are the only thing that would
        perturb the noise stream.  Subclasses that draw must return ``True``.
        A drawing fault still has a block form unless it :attr:`may_drop`:
        the sensor then samples per instant into the block.
        """
        return True

    @property
    def may_drop(self) -> bool:
        """Whether :meth:`apply` may return ``None``; a sensor carrying such a
        fault has no block form.  Subclasses that never drop return ``False``."""
        return True

    def apply(
        self, reading: SensorReading, rng: np.random.Generator
    ) -> Optional[SensorReading]:
        """Return the corrupted reading, or ``None`` if the reading is dropped.

        Returning ``None`` models an omission (the transducer produced no
        output for this sampling instant).
        """
        raise NotImplementedError

    def reset(self) -> None:
        """Clear per-activation state (called when the fault deactivates)."""

    def apply_block(self, values: np.ndarray, active: np.ndarray) -> np.ndarray:
        """Block form of :meth:`apply` from a fresh fault: ``values`` (samples
        on the last axis) as delivered while ``active`` says the activation
        window is open.  Only for a fault that does not draw from the RNG."""
        raise NotImplementedError(f"{type(self).__name__} has no block form")


@dataclass
class DelayFault(SensorFault):
    """The reading is delivered late by ``delay`` seconds (possibly dropped).

    A delay larger than the consumer's freshness bound manifests as a timing
    failure detectable by a timeout/omission detector.
    """

    delay: float = 0.2
    drop_probability: float = 0.0

    def fault_class(self) -> FaultClass:
        return FaultClass.DELAY

    @property
    def draws_rng(self) -> bool:
        return self.drop_probability > 0

    @property
    def may_drop(self) -> bool:
        return self.drop_probability > 0

    def apply(
        self, reading: SensorReading, rng: np.random.Generator
    ) -> Optional[SensorReading]:
        if self.drop_probability > 0 and rng.random() < self.drop_probability:
            return None
        # The value was acquired at `timestamp`, but the timestamp the
        # downstream pipeline sees does not change: the reading simply becomes
        # stale, which is exactly how a delay fault manifests.
        return reading

    def apply_block(self, values: np.ndarray, active: np.ndarray) -> np.ndarray:
        return values


@dataclass
class SporadicOffsetFault(SensorFault):
    """Occasional outliers: with ``probability`` the value jumps by ``offset``."""

    offset: float = 10.0
    probability: float = 0.2
    may_drop = False

    def fault_class(self) -> FaultClass:
        return FaultClass.SPORADIC_OFFSET

    def apply(
        self, reading: SensorReading, rng: np.random.Generator
    ) -> Optional[SensorReading]:
        if rng.random() < self.probability:
            sign = 1.0 if rng.random() < 0.5 else -1.0
            return reading.with_value(reading.value + sign * self.offset)
        return reading


@dataclass
class PermanentOffsetFault(SensorFault):
    """A constant bias added to every reading while the fault is active."""

    offset: float = 5.0
    may_drop = False

    def fault_class(self) -> FaultClass:
        return FaultClass.PERMANENT_OFFSET

    @property
    def draws_rng(self) -> bool:
        return False

    def apply(
        self, reading: SensorReading, rng: np.random.Generator
    ) -> Optional[SensorReading]:
        return reading.with_value(reading.value + self.offset)

    def apply_block(self, values: np.ndarray, active: np.ndarray) -> np.ndarray:
        return np.where(active, values + self.offset, values)


@dataclass
class StochasticOffsetFault(SensorFault):
    """Increased measurement noise: zero-mean Gaussian with ``sigma``."""

    sigma: float = 3.0
    may_drop = False

    def fault_class(self) -> FaultClass:
        return FaultClass.STOCHASTIC_OFFSET

    def apply(
        self, reading: SensorReading, rng: np.random.Generator
    ) -> Optional[SensorReading]:
        return reading.with_value(reading.value + rng.normal(0.0, self.sigma))


@dataclass
class StuckAtFault(SensorFault):
    """The output freezes at the first value observed after activation."""

    stuck_value: Optional[float] = None
    _frozen: Optional[float] = None
    may_drop = False

    def fault_class(self) -> FaultClass:
        return FaultClass.STUCK_AT

    @property
    def draws_rng(self) -> bool:
        return False

    def apply(
        self, reading: SensorReading, rng: np.random.Generator
    ) -> Optional[SensorReading]:
        if self._frozen is None:
            self._frozen = (
                self.stuck_value if self.stuck_value is not None else reading.value
            )
        return reading.with_value(self._frozen)

    def reset(self) -> None:
        self._frozen = None

    def apply_block(self, values: np.ndarray, active: np.ndarray) -> np.ndarray:
        """Each activation run (the injector resets the fault between runs)
        freezes at its first value: a running maximum of the run starts."""
        if self.stuck_value is not None:
            return np.where(active, float(self.stuck_value), values)
        index = np.arange(active.shape[-1])
        starts = active.copy()
        starts[1:] &= ~active[:-1]
        first = np.maximum.accumulate(np.where(starts, index, 0))
        return np.where(active, values[..., first], values)


def make_fault(fault_class: FaultClass, magnitude: float = 1.0) -> SensorFault:
    """Factory used by fault-injection campaigns.

    ``magnitude`` scales the fault severity relative to the class's default;
    a non-finite one would turn every error metric into ``NaN`` or
    ``Infinity``, so it raises ``ValueError``.
    """
    if not math.isfinite(magnitude):
        raise ValueError(f"fault magnitude must be finite, got {magnitude}")
    if fault_class is FaultClass.DELAY:
        return DelayFault(delay=0.2 * magnitude)
    if fault_class is FaultClass.SPORADIC_OFFSET:
        return SporadicOffsetFault(offset=10.0 * magnitude)
    if fault_class is FaultClass.PERMANENT_OFFSET:
        return PermanentOffsetFault(offset=5.0 * magnitude)
    if fault_class is FaultClass.STOCHASTIC_OFFSET:
        return StochasticOffsetFault(sigma=3.0 * magnitude)
    if fault_class is FaultClass.STUCK_AT:
        return StuckAtFault()
    raise ValueError(f"unknown fault class: {fault_class}")
