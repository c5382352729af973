"""Sensor fusion.

Three redundancy/fusion flavours named by the paper (section IV-B):

* **Component redundancy** — several physical sensors measuring the same
  quantity; fused with Marzullo interval intersection (the paper cites
  Marzullo's fault-tolerant sensor averaging [26]) or with validity-weighted
  averaging.
* **Analytical redundancy** — a model prediction used as an extra (virtual)
  sensor (see :class:`repro.sensors.abstract_sensor.AnalyticalModel`).
* **Temporal redundancy** — "a series of samples and some comparison or
  averaging"; :class:`TemporalFuser` implements a validity-aware moving
  estimate.

Block forms: :func:`naive_mean_block` and :func:`validity_weighted_mean_block`
fuse whole per-replica arrays; their sums run left to right from 0, as
``sum`` does, so each value is bitwise the per-sample one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.sensors.readings import SensorReading


@dataclass(frozen=True)
class FusionResult:
    """Fused estimate with an aggregate validity and supporting interval."""

    value: float
    validity: float
    interval: Tuple[float, float]
    contributors: int

    @property
    def error_bound(self) -> float:
        return 0.5 * (self.interval[1] - self.interval[0])


def naive_mean(readings: Sequence[SensorReading]) -> Optional[FusionResult]:
    """Baseline fusion: unweighted mean, ignoring validity (used as E2 baseline)."""
    if not readings:
        return None
    mean = sum([r.value for r in readings]) / len(readings)
    low = min([r.value - r.error_bound for r in readings])
    high = max([r.value + r.error_bound for r in readings])
    return FusionResult(value=mean, validity=1.0, interval=(low, high), contributors=len(readings))


def validity_weighted_mean(
    readings: Sequence[SensorReading], min_validity: float = 0.0
) -> Optional[FusionResult]:
    """Validity-weighted average; readings at/below ``min_validity`` are excluded.

    Aggregate validity is the normalised total weight (how much trusted
    evidence supports the estimate relative to the number of contributors).
    """
    usable = [r for r in readings if r.validity > min_validity]
    if not usable:
        return None
    total_weight = sum(r.validity for r in usable)
    if total_weight <= 0:
        return None
    value = sum(r.value * r.validity for r in usable) / total_weight
    validity = min(1.0, total_weight / len(usable))
    low = min([r.value - r.error_bound for r in usable])
    high = max([r.value + r.error_bound for r in usable])
    return FusionResult(value=value, validity=validity, interval=(low, high), contributors=len(usable))


def naive_mean_block(values: Sequence[np.ndarray]) -> np.ndarray:
    """Block form of ``naive_mean(readings).value``: one value array per
    replica, every replica present at every sample."""
    total = 0.0
    with np.errstate(invalid="ignore", over="ignore"):
        for row in values:
            total = total + row
    return total / len(values)


def validity_weighted_mean_block(
    values: Sequence[np.ndarray],
    validities: Sequence[np.ndarray],
    min_validity: float = 0.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Block form of ``validity_weighted_mean(readings, min_validity).value``:
    ``(value, defined)``, ``defined`` false where that returns ``None``.  An
    excluded replica adds +0.0, which leaves a sum started from 0 as it was.
    """
    total_weight = 0.0
    weighted = 0.0
    usable = False
    with np.errstate(invalid="ignore", over="ignore"):
        for value, validity in zip(values, validities):
            use = validity > min_validity
            usable = usable | use
            total_weight = total_weight + np.where(use, validity, 0.0)
            weighted = weighted + np.where(use, value * validity, 0.0)
    defined = usable & ~(total_weight <= 0)
    mean = np.divide(weighted, total_weight, out=np.zeros(np.shape(defined)), where=defined)
    return mean, defined


def marzullo_fuse(
    readings: Sequence[SensorReading], max_faulty: Optional[int] = None
) -> Optional[FusionResult]:
    """Marzullo's algorithm for fault-tolerant interval intersection.

    Finds the smallest interval contained in at least ``n - f`` of the input
    intervals, where ``f`` is the assumed maximum number of faulty sensors
    (default ``(n - 1) // 2``).  The fused value is the interval midpoint.
    """
    intervals = [r.interval for r in readings if r.is_valid]
    n = len(intervals)
    if n == 0:
        return None
    if max_faulty is None:
        max_faulty = (n - 1) // 2
    needed = max(1, n - max_faulty)

    # Sweep over interval endpoints counting overlaps.  Starts sort before
    # ends at equal coordinates so touching (closed) intervals overlap.
    endpoints: List[Tuple[float, int]] = []
    for low, high in intervals:
        endpoints.append((low, +1))
        endpoints.append((high, -1))
    endpoints.sort(key=lambda point: (point[0], -point[1]))

    max_overlap = 0
    count = 0
    for _coordinate, delta in endpoints:
        count += 1 if delta == +1 else -1
        max_overlap = max(max_overlap, count)
    # Classic Marzullo behaviour: if fewer than `needed` intervals ever agree
    # (e.g. disjoint correct readings), fall back to the best agreement seen.
    target = min(needed, max_overlap) if max_overlap else needed

    best: Optional[Tuple[float, float]] = None
    count = 0
    current_start = None
    for coordinate, delta in endpoints:
        if delta == +1:
            count += 1
            if count >= target and current_start is None:
                current_start = coordinate
        else:
            if count >= target and current_start is not None:
                candidate = (current_start, coordinate)
                if best is None or (candidate[1] - candidate[0]) < (best[1] - best[0]):
                    best = candidate
                current_start = None
            count -= 1
            if count < target:
                current_start = None
    if best is None:
        return None
    value = 0.5 * (best[0] + best[1])
    agreeing = sum(1 for low, high in intervals if low <= best[1] and high >= best[0])
    validity = agreeing / n
    return FusionResult(value=value, validity=validity, interval=best, contributors=n)


class TemporalFuser:
    """Temporal-redundancy fusion over a sliding window of recent readings.

    The estimate is a validity-weighted mean of the window; readings older
    than ``max_age`` are evicted.  This implements the paper's third
    redundancy option ("a series of samples and some comparison or
    averaging").
    """

    def __init__(self, window: int = 5, max_age: float = 1.0):
        if window < 1:
            raise ValueError("window must be >= 1")
        if max_age <= 0:
            raise ValueError("max_age must be positive")
        self.window = window
        self.max_age = max_age
        self._buffer: Deque[SensorReading] = deque(maxlen=window)

    def add(self, reading: SensorReading) -> None:
        self._buffer.append(reading)

    def estimate(self, now: float) -> Optional[FusionResult]:
        """Current fused estimate, or ``None`` when no fresh reading exists."""
        fresh = [r for r in self._buffer if r.is_fresh(now, self.max_age)]
        return validity_weighted_mean(fresh)

    def clear(self) -> None:
        self._buffer.clear()

    def __len__(self) -> int:
        return len(self._buffer)
