"""Failure detectors for continuous-valued sensors.

MOSAIC "distinguishes between two types of failure detectors: a) dominant
detectors that render a result invalid (i.e. a validity of 0) if they detect
a failure, and b) other detectors that lead to a certain continuous validity
estimate" (section IV-B).  Each detector here reports a
:class:`DetectorVerdict` with a suspicion in ``[0, 1]`` and a ``dominant``
flag; the fault-management unit (:mod:`repro.sensors.validity`) combines the
verdicts into the data-validity attribute.

Hot-path notes: every sample of every abstract sensor runs each detector of
its stack once, so ``check`` is the innermost loop of the sensor layer.

* A detector that suspects nothing returns one shared, immutable
  ``DetectorVerdict(name, 0.0, dominant, "")`` built in its constructor; a
  verdict is only allocated when the suspicion is positive.  The shared
  verdict equals the one a fresh construction would give, field by field.
* :class:`StuckAtDetector` returns as soon as the two newest values differ
  (the common case for a noisy sensor) instead of copying its history.
* The dominant detectors compare with ``not (low <= value <= high)`` and
  ``not (age <= max_age)`` so a NaN value or timestamp fails closed.

Block forms: :class:`RangeDetector`, :class:`RateLimitDetector` and
:class:`StuckAtDetector` also map a value array and its timestamps to a
suspicion array in one pure call (:meth:`FailureDetector.suspicions`) that
equals ``check`` run sample by sample from a fresh detector, bit for bit.
An open-loop sweep, whose samples never depend on a verdict, uses it
(:mod:`repro.scenario.sensor_sweep`).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Iterable, List, Optional

import numpy as np

from repro.sensors.readings import SensorReading


@dataclass(frozen=True)
class DetectorVerdict:
    """Outcome of one detector for one reading."""

    detector: str
    suspicion: float  # 0.0 = looks correct, 1.0 = certainly faulty
    dominant: bool = False
    reason: str = ""

    def __post_init__(self) -> None:
        if not 0.0 <= self.suspicion <= 1.0:
            raise ValueError(f"suspicion must be in [0, 1], got {self.suspicion}")

    @property
    def invalidates(self) -> bool:
        """A dominant detector with full suspicion forces validity to zero."""
        return self.dominant and self.suspicion >= 1.0


class FailureDetector:
    """Base class for per-reading failure detectors."""

    #: Dominant detectors force validity to 0 when they fire (paper Fig 3,
    #: solid dots); non-dominant detectors contribute a continuous estimate.
    dominant: bool = False

    def __init__(self, name: str):
        self.name = name
        self.evaluations = 0
        self.detections = 0
        self._clear_verdict = DetectorVerdict(name, 0.0, self.dominant, "")

    def check(self, reading: SensorReading, now: float) -> DetectorVerdict:
        """Evaluate one reading; must be overridden."""
        raise NotImplementedError

    def _clear(self) -> DetectorVerdict:
        """The verdict for a reading that raises no suspicion."""
        self.evaluations += 1
        return self._clear_verdict

    def _verdict(self, suspicion: float, reason: str = "") -> DetectorVerdict:
        self.evaluations += 1
        if suspicion > 0:
            self.detections += 1
        return DetectorVerdict(
            detector=self.name,
            suspicion=float(min(1.0, max(0.0, suspicion))),
            dominant=self.dominant,
            reason=reason,
        )

    def reset(self) -> None:
        """Clear detector history (sensor restart)."""

    def suspicions(self, values: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Block form of :meth:`check`: the suspicion of each sample of
        ``values`` (samples on the last axis, leading axes independent rows)
        taken at ``times``.  Needs :attr:`has_block_form`."""
        raise NotImplementedError(f"{type(self).__name__} has no block form")

    @property
    def has_block_form(self) -> bool:
        """Whether the class whose :meth:`check` is in force also defines
        :meth:`suspicions`: overriding ``check`` alone loses the block form."""
        owner = next(klass for klass in type(self).__mro__ if "check" in vars(klass))
        return "suspicions" in vars(owner)


def _hard_factor(hard_factor: float) -> float:
    """``hard_factor`` if finite and > 1: the excess divides by ``hard_factor - 1``."""
    if not 1.0 < hard_factor < math.inf:
        raise ValueError(f"hard_factor must be finite and > 1, got {hard_factor}")
    return hard_factor


def _capped(suspicion: np.ndarray) -> np.ndarray:
    """``_verdict(min(1.0, s)).suspicion`` per element: NaN gives 1.0."""
    capped = np.where(suspicion < 1.0, suspicion, 1.0)
    return np.where(capped > 0.0, capped, 0.0)


class RangeDetector(FailureDetector):
    """Dominant detector: the value must lie within a physical range."""

    dominant = True

    def __init__(self, low: float, high: float, name: str = "range"):
        super().__init__(name)
        if high < low:
            raise ValueError(f"range high {high} < low {low}")
        self.low = low
        self.high = high

    def check(self, reading: SensorReading, now: float) -> DetectorVerdict:
        value = reading.value
        if not self.low <= value <= self.high:
            return self._verdict(1.0, f"value {value} outside [{self.low}, {self.high}]")
        return self._clear()

    def suspicions(self, values: np.ndarray, times: np.ndarray) -> np.ndarray:
        return np.where((self.low <= values) & (values <= self.high), 0.0, 1.0)


class RateLimitDetector(FailureDetector):
    """The measured quantity cannot change faster than ``max_rate`` per second.

    Suspicion grows linearly with the excess rate; it is a continuous
    (non-dominant) detector because a large-but-plausible jump may be real.
    """

    dominant = False

    def __init__(self, max_rate: float, name: str = "rate_limit", hard_factor: float = 4.0):
        super().__init__(name)
        if max_rate <= 0:
            raise ValueError("max_rate must be positive")
        self.max_rate = max_rate
        self.hard_factor = _hard_factor(hard_factor)
        self._last: Optional[SensorReading] = None

    def check(self, reading: SensorReading, now: float) -> DetectorVerdict:
        last = self._last
        self._last = reading
        if last is None:
            return self._clear()
        dt = reading.timestamp - last.timestamp
        if dt <= 0:
            return self._clear()
        rate = abs(reading.value - last.value) / dt
        if rate <= self.max_rate:
            return self._clear()
        excess = (rate - self.max_rate) / (self.max_rate * (self.hard_factor - 1.0))
        return self._verdict(min(1.0, excess), f"rate {rate:.2f} exceeds {self.max_rate:.2f}")

    def reset(self) -> None:
        self._last = None

    def suspicions(self, values: np.ndarray, times: np.ndarray) -> np.ndarray:
        out = np.zeros(np.shape(values))
        with np.errstate(all="ignore"):
            dt = np.diff(times)
            rate = np.abs(np.diff(values)) / dt
            excess = (rate - self.max_rate) / (self.max_rate * (self.hard_factor - 1.0))
        # Negated tests, as in check(): a NaN step or rate raises suspicion.
        fires = ~(dt <= 0) & ~(rate <= self.max_rate)
        out[..., 1:] = np.where(fires, _capped(excess), 0.0)
        return out


class TimeoutDetector(FailureDetector):
    """Dominant detector for delay/omission faults: readings must be fresh."""

    dominant = True

    def __init__(self, max_age: float, name: str = "timeout"):
        super().__init__(name)
        if max_age <= 0:
            raise ValueError("max_age must be positive")
        self.max_age = max_age

    def check(self, reading: SensorReading, now: float) -> DetectorVerdict:
        # Not ``reading.age(now)``: its clamp at zero would turn a NaN age
        # into 0.0.  A negative age (a reading from the future) is fresh.
        age = now - reading.timestamp
        if not age <= self.max_age:
            return self._verdict(1.0, f"reading age {age:.3f}s exceeds {self.max_age:.3f}s")
        return self._clear()


class StuckAtDetector(FailureDetector):
    """Detects a frozen output: suspicion rises once the value stops changing.

    The detector keeps the last ``window`` readings; if the spread of values
    is below ``epsilon`` while the reference quantity is expected to vary,
    suspicion increases with the run length of identical values.
    """

    dominant = False

    def __init__(
        self,
        window: int = 8,
        epsilon: float = 1e-9,
        min_run: int = 3,
        name: str = "stuck_at",
    ):
        super().__init__(name)
        if window < 2:
            raise ValueError("window must be >= 2")
        self.window = window
        self.epsilon = epsilon
        self.min_run = min_run
        self._history: Deque[float] = deque(maxlen=window)

    def check(self, reading: SensorReading, now: float) -> DetectorVerdict:
        history = self._history
        history.append(reading.value)
        if len(history) < self.min_run:
            return self._clear()
        # The run of identical values ends at the newest pair when it differs.
        if self.min_run > 1 and not abs(history[-1] - history[-2]) <= self.epsilon:
            return self._clear()
        run = 1
        values = list(history)
        for previous, current in zip(reversed(values[:-1]), reversed(values[1:])):
            if abs(current - previous) <= self.epsilon:
                run += 1
            else:
                break
        if run < self.min_run:
            return self._clear()
        suspicion = (run - self.min_run + 1) / (self.window - self.min_run + 1)
        return self._verdict(min(1.0, suspicion), f"value frozen for {run} samples")

    def reset(self) -> None:
        self._history.clear()

    def suspicions(self, values: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Sample ``t``'s run is ``min(t - last_break + 1, window)``, with
        ``last_break`` a running maximum of the indices whose step exceeds
        ``epsilon`` (index 0 counts as one): no per-sample loop."""
        window, min_run = self.window, self.min_run
        if min_run > window:  # the history never holds min_run values
            return np.zeros(np.shape(values))
        index = np.arange(np.shape(values)[-1])
        breaks = np.ones(np.shape(values), dtype=bool)
        with np.errstate(invalid="ignore"):
            breaks[..., 1:] = ~(np.abs(np.diff(values)) <= self.epsilon)
        last_break = np.maximum.accumulate(np.where(breaks, index, 0), axis=-1)
        run = np.minimum(index - last_break + 1, window)
        fires = (np.minimum(index + 1, window) >= min_run) & (run >= min_run)
        suspicion = (run - min_run + 1) / (window - min_run + 1)
        return np.where(fires, _capped(suspicion), 0.0)


class ModelResidualDetector(FailureDetector):
    """Analytical-redundancy detector: compares the reading with a model prediction.

    ``model`` maps the current simulated time to the expected value (e.g. a
    kinematic prediction from other sensors).  Suspicion grows with the
    residual normalised by ``tolerance``.
    """

    dominant = False

    def __init__(
        self,
        model: Callable[[float], float],
        tolerance: float,
        name: str = "model_residual",
        hard_factor: float = 4.0,
    ):
        super().__init__(name)
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        self.model = model
        self.tolerance = tolerance
        self.hard_factor = _hard_factor(hard_factor)

    def check(self, reading: SensorReading, now: float) -> DetectorVerdict:
        expected = self.model(reading.timestamp)
        residual = abs(reading.value - expected)
        if residual <= self.tolerance:
            return self._clear()
        excess = (residual - self.tolerance) / (self.tolerance * (self.hard_factor - 1.0))
        return self._verdict(
            min(1.0, excess), f"residual {residual:.3f} exceeds tolerance {self.tolerance:.3f}"
        )


class CrossValidationDetector(FailureDetector):
    """Component-redundancy detector: compares against peer readings.

    The peer supplier returns the most recent readings of redundant sensors
    measuring the same quantity; the detector flags readings far from the
    peer median.
    """

    dominant = False

    def __init__(
        self,
        peer_supplier: Callable[[], Iterable[SensorReading]],
        tolerance: float,
        name: str = "cross_validation",
        hard_factor: float = 4.0,
    ):
        super().__init__(name)
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        self.peer_supplier = peer_supplier
        self.tolerance = tolerance
        self.hard_factor = _hard_factor(hard_factor)

    def check(self, reading: SensorReading, now: float) -> DetectorVerdict:
        peers: List[float] = [p.value for p in self.peer_supplier() if p.is_valid]
        if len(peers) < 2:
            return self._clear()
        peers_sorted = sorted(peers)
        mid = len(peers_sorted) // 2
        if len(peers_sorted) % 2:
            median = peers_sorted[mid]
        else:
            median = 0.5 * (peers_sorted[mid - 1] + peers_sorted[mid])
        deviation = abs(reading.value - median)
        if deviation <= self.tolerance:
            return self._clear()
        excess = (deviation - self.tolerance) / (self.tolerance * (self.hard_factor - 1.0))
        return self._verdict(
            min(1.0, excess),
            f"deviation {deviation:.3f} from peer median {median:.3f}",
        )
