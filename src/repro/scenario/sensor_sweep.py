"""E2: one fault class in one of three redundant ranging replicas.

The paper's MOSAIC claim (section IV-B): failure detectors plus
validity-weighted fusion beat naive averaging when a sensor fails.
:func:`sensor_validity_sweep` samples and assesses whole
``(seeds, samples)`` blocks, one seed from the factory, a seed batch from
the vector backend.  Every fault class :func:`make_fault` builds has a
block form, since none can drop a sample; the RNG-drawing ones (sporadic
and stochastic offsets) make the faulty replica sample per instant.

This module, unlike the scenario catalog, is in the engine fingerprint, so
an edit here re-keys every cached E2 cell.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Iterable, List, Tuple

import numpy as np

from repro.scenario.builders import SensorRig
from repro.sensors.abstract_sensor import AbstractSensor
from repro.sensors.detectors import RangeDetector, RateLimitDetector, StuckAtDetector
from repro.sensors.faults import FaultClass, make_fault
from repro.sensors.fusion import naive_mean_block, validity_weighted_mean_block

#: Each replica: a noisy ranging sensor with range, rate and stuck-at detectors.
RIG = SensorRig(
    name="ranging",
    quantity="range",
    noise_sigma=0.3,
    detectors=lambda: [
        RangeDetector(low=0.0, high=200.0),
        RateLimitDetector(max_rate=30.0),
        StuckAtDetector(window=10, min_run=4),
    ],
)
REPLICAS = 3
#: Replicas at or below this validity are left out of the weighted mean.
MIN_VALIDITY = 0.05
#: A faulty-replica sample below this validity counts as detected.
DETECTED_BELOW = 0.99


def _truth(true_value: float) -> Callable[[float], float]:
    return lambda t: true_value + 5.0 * np.sin(0.5 * t)


def _replicas(
    seed: int, fault_class: str, magnitude: float, fault_start: float, true_value: float
) -> List[AbstractSensor]:
    """The replicas ``s0..s2``, seeded ``seed + i``, with the fault on ``s0``."""
    truth = _truth(true_value)
    replicas = [
        RIG.build(truth, rng=np.random.default_rng(seed + i), name=f"s{i}")
        for i in range(REPLICAS)
    ]
    replicas[0].physical.inject(
        make_fault(FaultClass(fault_class), magnitude=magnitude), start=fault_start
    )
    return replicas


def sensor_validity_sweep(
    seeds: Iterable[int],
    fault_class: str = "stuck_at",
    magnitude: float = 3.0,
    samples: int = 400,
    period: float = 0.05,
    fault_start: float = 5.0,
    true_value: float = 50.0,
) -> List[Dict[str, Any]]:
    """E2 results per seed: each replica sampled and assessed as one
    ``(seeds, samples)`` block, bit for bit what reading sample by sample
    gives.  An unknown ``fault_class`` raises ``ValueError``."""
    now, truth = _instants(samples, period, true_value)
    columns = [_replicas(seed, fault_class, magnitude, fault_start, true_value) for seed in seeds]
    if not columns:
        return []
    values, validity = [], []
    for i in range(REPLICAS):
        sensors = [column[i] for column in columns]
        block = np.stack([sensor.physical.sample_block(now, truth) for sensor in sensors])
        values.append(block)
        # Every replica i has the same detector stack, so one assesses all.
        validity.append(sensors[0].assess_block(block, now))
    return _results(fault_class, fault_start, now, truth, values, validity)


def _instants(samples: int, period: float, true_value: float) -> Tuple[np.ndarray, np.ndarray]:
    """The sampling instants and the truth at each; an empty sweep would
    report ``NaN`` errors as a measurement, so it raises ``ValueError``."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if not (math.isfinite(period) and period > 0):
        raise ValueError(f"period must be finite and > 0, got {period}")
    now = np.arange(samples) * period
    # A scalar np.sin per instant, as the sensors' truth_fn computes it: an
    # array np.sin may round differently.
    return now, np.array(list(map(_truth(true_value), now.tolist())))


def _results(fault_class, fault_start, now, truth, values, validity) -> List[Dict[str, Any]]:
    """Coverage and fusion errors per row of the replicas' ``(rows, samples)``
    value and validity arrays; replica 0 is the faulty one."""
    weighted, defined = validity_weighted_mean_block(values, validity, MIN_VALIDITY)
    if not defined.any(axis=-1).all():
        # The weighted error would be the mean of nothing: NaN, not a measurement.
        raise ValueError(f"no instant has a replica with validity > {MIN_VALIDITY}")
    err_faulty = np.abs(values[0] - truth)
    err_naive = np.abs(naive_mean_block(values) - truth)
    err_weighted = np.abs(weighted - truth)
    after = now >= fault_start
    fault_samples = int(after.sum())
    detected = (validity[0][:, after] < DETECTED_BELOW).sum(axis=1)
    return [
        {
            "fault_class": fault_class,
            "detection_coverage": int(detected[k]) / fault_samples if fault_samples else 0.0,
            "faulty_sensor_mae": float(np.mean(err_faulty[k])),
            "naive_mean_mae": float(np.mean(err_naive[k])),
            "validity_weighted_mae": float(np.mean(err_weighted[k][defined[k]])),
        }
        for k in range(len(detected))
    ]
