"""Equivalence of the allocation-lean sensor read path with its reference.

The ``_Ref*`` classes and functions below are the straightforward form of
the read path: a fresh ``DetectorVerdict`` per check, a
``ValidityAssessment`` per assessment, a fresh copy of every annotated
reading, noise drawn off a numpy buffer whose refill size is decided on
every sample, and fusion through ``SensorReading.interval``.  The library
must produce bit-identical readings, verdicts, counters and fusion results.
"""

from collections import deque

import numpy as np
import pytest

from repro.sensors.abstract_sensor import AbstractSensor, PhysicalSensor
from repro.sensors.detectors import (
    CrossValidationDetector,
    DetectorVerdict,
    ModelResidualDetector,
    RangeDetector,
    RateLimitDetector,
    StuckAtDetector,
    TimeoutDetector,
)
from repro.sensors.faults import DelayFault, FaultClass, make_fault
from repro.sensors.fusion import FusionResult, naive_mean, validity_weighted_mean
from repro.sensors.injector import FaultInjector
from repro.sensors.readings import ReadingAttributes, SensorReading
from repro.sensors.validity import FaultManagementUnit, ValidityPolicy

# --------------------------------------------------------------------------
# Reference implementation
# --------------------------------------------------------------------------


class _RefNoise:
    def __init__(self, rng, chunk=128):
        self.rng = rng
        self.chunk = chunk
        self._buffer = np.empty(0)
        self._index = 0

    def next(self, chunk=None):
        index = self._index
        buffer = self._buffer
        if index >= buffer.shape[0]:
            size = self.chunk if chunk is None else int(chunk)
            buffer = self._buffer = self.rng.standard_normal(size)
            index = 0
        self._index = index + 1
        return buffer[index]


class _RefPhysical:
    def __init__(self, name, truth_fn, noise_sigma, rng):
        self.name = name
        self.quantity = "range"
        self.truth_fn = truth_fn
        self.noise_sigma = noise_sigma
        self.error_bound = 3.0 * noise_sigma
        self.position = None
        self.injector = FaultInjector(rng=rng)
        self._sequence = 0
        self._noise = _RefNoise(rng)

    def sample(self, now):
        true_value = self.truth_fn(now)
        sigma = self.noise_sigma
        if sigma > 0:
            noise = sigma * self._noise.next(chunk=1 if self.injector.may_draw_rng else None)
        else:
            noise = 0.0
        self._sequence += 1
        reading = SensorReading(
            quantity=self.quantity,
            value=float(true_value + noise),
            timestamp=now,
            validity=1.0,
            error_bound=self.error_bound,
            attributes=ReadingAttributes(
                position=self.position, source_id=self.name, sequence=self._sequence
            ),
        )
        return self.injector.process(reading, now)


class _RefDetector:
    dominant = False

    def __init__(self, name, **config):
        self.name = name
        self.evaluations = 0
        self.detections = 0
        self.__dict__.update(config)

    def _verdict(self, suspicion, reason=""):
        self.evaluations += 1
        if suspicion > 0:
            self.detections += 1
        return DetectorVerdict(
            detector=self.name,
            suspicion=float(min(1.0, max(0.0, suspicion))),
            dominant=self.dominant,
            reason=reason,
        )

    def reset(self):
        pass


class _RefRange(_RefDetector):
    dominant = True

    def check(self, reading, now):
        if reading.value < self.low or reading.value > self.high:
            return self._verdict(1.0, f"value {reading.value} outside [{self.low}, {self.high}]")
        return self._verdict(0.0)


class _RefRateLimit(_RefDetector):
    _last = None

    def check(self, reading, now):
        last = self._last
        self._last = reading
        if last is None:
            return self._verdict(0.0)
        dt = reading.timestamp - last.timestamp
        if dt <= 0:
            return self._verdict(0.0)
        rate = abs(reading.value - last.value) / dt
        if rate <= self.max_rate:
            return self._verdict(0.0)
        excess = (rate - self.max_rate) / (self.max_rate * (self.hard_factor - 1.0))
        return self._verdict(min(1.0, excess), f"rate {rate:.2f} exceeds {self.max_rate:.2f}")

    def reset(self):
        self._last = None


class _RefTimeout(_RefDetector):
    dominant = True

    def check(self, reading, now):
        age = reading.age(now)
        if age > self.max_age:
            return self._verdict(1.0, f"reading age {age:.3f}s exceeds {self.max_age:.3f}s")
        return self._verdict(0.0)


class _RefStuckAt(_RefDetector):
    def __init__(self, name, **config):
        super().__init__(name, **config)
        self._history = deque(maxlen=self.window)

    def check(self, reading, now):
        self._history.append(reading.value)
        if len(self._history) < self.min_run:
            return self._verdict(0.0)
        run = 1
        values = list(self._history)
        for previous, current in zip(reversed(values[:-1]), reversed(values[1:])):
            if abs(current - previous) <= self.epsilon:
                run += 1
            else:
                break
        if run < self.min_run:
            return self._verdict(0.0)
        suspicion = (run - self.min_run + 1) / (self.window - self.min_run + 1)
        return self._verdict(min(1.0, suspicion), f"value frozen for {run} samples")

    def reset(self):
        self._history.clear()


class _RefResidual(_RefDetector):
    def check(self, reading, now):
        expected = self.model(reading.timestamp)
        residual = abs(reading.value - expected)
        if residual <= self.tolerance:
            return self._verdict(0.0)
        excess = (residual - self.tolerance) / (self.tolerance * (self.hard_factor - 1.0))
        return self._verdict(
            min(1.0, excess), f"residual {residual:.3f} exceeds tolerance {self.tolerance:.3f}"
        )


class _RefCross(_RefDetector):
    def check(self, reading, now):
        peers = [p.value for p in self.peer_supplier() if p.is_valid]
        if len(peers) < 2:
            return self._verdict(0.0)
        peers_sorted = sorted(peers)
        mid = len(peers_sorted) // 2
        if len(peers_sorted) % 2:
            median = peers_sorted[mid]
        else:
            median = 0.5 * (peers_sorted[mid - 1] + peers_sorted[mid])
        deviation = abs(reading.value - median)
        if deviation <= self.tolerance:
            return self._verdict(0.0)
        excess = (deviation - self.tolerance) / (self.tolerance * (self.hard_factor - 1.0))
        return self._verdict(
            min(1.0, excess), f"deviation {deviation:.3f} from peer median {median:.3f}"
        )


def _ref_combine(policy, floor, verdicts):
    """``(validity, dominant_triggered)`` as a ``ValidityAssessment`` holds them."""
    verdict_list = list(verdicts)
    for verdict in verdict_list:
        if verdict.invalidates:
            return 0.0, True
    continuous = [v.suspicion for v in verdict_list if not v.dominant]
    if not continuous:
        return 1.0, False
    if policy is ValidityPolicy.PRODUCT:
        validity = 1.0
        for suspicion in continuous:
            validity *= 1.0 - suspicion
    elif policy is ValidityPolicy.WORST_CASE:
        validity = 1.0 - max(continuous)
    else:
        validity = 1.0 - sum(continuous) / len(continuous)
    return max(floor, min(1.0, validity)), False


def _ref_assess(policy, reading, verdicts):
    validity = _ref_combine(policy, 0.0, verdicts)[0]
    return SensorReading(
        quantity=reading.quantity,
        value=reading.value,
        timestamp=reading.timestamp,
        validity=float(min(1.0, max(0.0, validity))),
        error_bound=reading.error_bound,
        attributes=reading.attributes,
    )


class _RefSensor:
    def __init__(self, physical, detectors, policy):
        self.physical = physical
        self.detectors = detectors
        self.policy = policy
        self.last_reading = None
        self.last_verdicts = []

    def read(self, now):
        raw = self.physical.sample(now)
        if raw is None:
            self.last_verdicts = []
            return None
        verdicts = [detector.check(raw, now) for detector in self.detectors]
        self.last_reading = _ref_assess(self.policy, raw, verdicts)
        self.last_verdicts = verdicts
        return self.last_reading


def _ref_naive_mean(readings):
    if not readings:
        return None
    values = [r.value for r in readings]
    mean = sum(values) / len(values)
    low = min(r.interval[0] for r in readings)
    high = max(r.interval[1] for r in readings)
    return FusionResult(value=mean, validity=1.0, interval=(low, high), contributors=len(readings))


def _ref_weighted_mean(readings, min_validity=0.0):
    usable = [r for r in readings if r.validity > min_validity]
    if not usable:
        return None
    total_weight = sum(r.validity for r in usable)
    if total_weight <= 0:
        return None
    value = sum(r.value * r.validity for r in usable) / total_weight
    validity = min(1.0, total_weight / len(usable))
    low = min(r.interval[0] for r in usable)
    high = max(r.interval[1] for r in usable)
    return FusionResult(value=value, validity=validity, interval=(low, high), contributors=len(usable))


# --------------------------------------------------------------------------
# Bit-exact comparison
# --------------------------------------------------------------------------


def _bits(x):
    """A float as its type and exact bits; anything else unchanged."""
    if isinstance(x, float):
        return (type(x).__name__, float(x).hex())
    if isinstance(x, tuple):
        return tuple(_bits(item) for item in x)
    return x


def _reading_bits(r):
    if r is None:
        return None
    a = r.attributes
    return (
        r.quantity, _bits(r.value), _bits(r.timestamp), _bits(r.validity),
        _bits(r.error_bound), a.position, a.source_id, a.sequence, a.extra,
    )


def _verdict_bits(v):
    return (v.detector, _bits(v.suspicion), v.dominant, v.reason)


def _fusion_bits(f):
    if f is None:
        return None
    return (_bits(f.value), _bits(f.validity), _bits(f.interval), f.contributors)


# --------------------------------------------------------------------------
# Scenario: three redundant replicas, the full detector stack
# --------------------------------------------------------------------------

_WINDOWS = ((1.0, 2.5), (4.0, 6.0))
_SAMPLES = 200  # crosses the 128-value noise refill
_PERIOD = 0.05


def _truth(t):
    return 50.0 + 5.0 * np.sin(0.5 * t)


def _stack(cls_map, peers):
    """One detector stack; ``cls_map`` picks library or reference classes."""
    return [
        cls_map["range"]("range", low=0.0, high=200.0),
        cls_map["rate"]("rate_limit", max_rate=30.0, hard_factor=4.0),
        cls_map["timeout"]("timeout", max_age=0.5),
        cls_map["stuck"]("stuck_at", window=10, epsilon=1e-9, min_run=4),
        cls_map["residual"]("model_residual", model=_truth, tolerance=1.5, hard_factor=4.0),
        cls_map["cross"]("cross_validation", peer_supplier=peers, tolerance=2.0, hard_factor=4.0),
    ]


_LIBRARY = {
    "range": lambda name, low, high: RangeDetector(low, high, name=name),
    "rate": lambda name, max_rate, hard_factor: RateLimitDetector(
        max_rate, name=name, hard_factor=hard_factor
    ),
    "timeout": lambda name, max_age: TimeoutDetector(max_age, name=name),
    "stuck": lambda name, window, epsilon, min_run: StuckAtDetector(
        window=window, epsilon=epsilon, min_run=min_run, name=name
    ),
    "residual": lambda name, model, tolerance, hard_factor: ModelResidualDetector(
        model, tolerance, name=name, hard_factor=hard_factor
    ),
    "cross": lambda name, peer_supplier, tolerance, hard_factor: CrossValidationDetector(
        peer_supplier, tolerance, name=name, hard_factor=hard_factor
    ),
}
_REFERENCE = {
    "range": _RefRange,
    "rate": _RefRateLimit,
    "timeout": _RefTimeout,
    "stuck": _RefStuckAt,
    "residual": _RefResidual,
    "cross": _RefCross,
}


def _fault(fault_class, magnitude):
    if fault_class == "lossy_delay":
        return DelayFault(delay=0.2 * magnitude, drop_probability=0.3)
    return make_fault(FaultClass(fault_class), magnitude=magnitude)


def _build(library, fault_class, magnitude, policy, seed):
    sensors = []

    def peers_of(index):
        return lambda: [s.last_reading for j, s in enumerate(sensors)
                        if j != index and s.last_reading is not None]

    for i in range(3):
        rng = np.random.default_rng(seed + i)
        sigma = 0.0 if i == 2 else 0.3  # one noiseless replica
        if library:
            physical = PhysicalSensor(f"s{i}", "range", _truth, noise_sigma=sigma, rng=rng)
            sensor = AbstractSensor(physical, _stack(_LIBRARY, peers_of(i)), policy=policy)
        else:
            physical = _RefPhysical(f"s{i}", _truth, sigma, rng)
            sensor = _RefSensor(physical, _stack(_REFERENCE, peers_of(i)), policy)
        sensors.append(sensor)
    if fault_class is not None:
        # Two windows that end and reopen: a fresh fault per window on s0,
        # one fault instance reset between its windows on s1.
        for start, end in _WINDOWS:
            sensors[0].physical.injector.add(_fault(fault_class, magnitude), start, end)
        shared = _fault(fault_class, magnitude)
        for start, end in _WINDOWS:
            sensors[1].physical.injector.add(shared, start, end)
    return sensors


_FAULTS = [None, "lossy_delay"] + [c.value for c in FaultClass]


@pytest.mark.parametrize("policy", list(ValidityPolicy))
@pytest.mark.parametrize("fault_class", _FAULTS)
@pytest.mark.parametrize("magnitude", [1.0, 40.0])
def test_read_path_matches_reference(fault_class, magnitude, policy):
    lean = _build(True, fault_class, magnitude, policy, seed=11)
    ref = _build(False, fault_class, magnitude, policy, seed=11)
    fired = set()
    for step in range(_SAMPLES):
        now = step * _PERIOD
        got, want = [], []
        for new_sensor, ref_sensor in zip(lean, ref):
            reading = new_sensor.read(now)
            expected = ref_sensor.read(now)
            assert _reading_bits(reading) == _reading_bits(expected), (step, new_sensor.name)
            assert [_verdict_bits(v) for v in new_sensor.last_verdicts] == [
                _verdict_bits(v) for v in ref_sensor.last_verdicts
            ]
            fired.update(v.detector for v in new_sensor.last_verdicts if v.suspicion > 0)
            if reading is not None:
                got.append(reading)
                want.append(expected)
        assert _fusion_bits(naive_mean(got)) == _fusion_bits(_ref_naive_mean(want))
        assert _fusion_bits(validity_weighted_mean(got, min_validity=0.05)) == _fusion_bits(
            _ref_weighted_mean(want, min_validity=0.05)
        )
    for new_sensor, ref_sensor in zip(lean, ref):
        for new_det, ref_det in zip(new_sensor.detectors, ref_sensor.detectors):
            assert (new_det.evaluations, new_det.detections) == (
                ref_det.evaluations, ref_det.detections
            )
        new_inj, ref_inj = new_sensor.physical.injector, ref_sensor.physical.injector
        assert (new_inj.injected_count, new_inj.dropped_count) == (
            ref_inj.injected_count, ref_inj.dropped_count
        )
    if fault_class is None:
        assert not fired - {"rate_limit"}
    elif magnitude == 40.0 and fault_class in ("permanent_offset", "sporadic_offset"):
        assert "range" in fired  # the dominant path runs too


def _stream(values, timestamps):
    return [SensorReading("q", v, t, error_bound=0.1) for v, t in zip(values, timestamps)]


@pytest.mark.parametrize("min_run,window", [(1, 2), (2, 2), (3, 5), (4, 10)])
def test_detectors_match_reference_on_crafted_streams(min_run, window):
    # Frozen runs, jumps, out-of-range values, repeated and reversed
    # timestamps and stale readings, with a reset in the middle.
    values = [5.0, 5.0, 5.0, 5.0, 5.0, 9.0, 250.0, 250.0, -3.0, 7.0, 7.0, 7.0, 7.0, 7.0]
    stamps = [0.0, 0.1, 0.1, 0.05, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2]
    nows = [t + (2.0 if i % 5 == 4 else 0.0) for i, t in enumerate(stamps)]
    readings = _stream(values, stamps)
    peer_box = []

    def peers():
        return peer_box

    configs = [
        ("range", dict(low=0.0, high=200.0)),
        ("rate", dict(max_rate=3.0, hard_factor=4.0)),
        ("timeout", dict(max_age=1.0)),
        ("stuck", dict(window=window, epsilon=1e-9, min_run=min_run)),
        ("residual", dict(model=lambda t: 6.0, tolerance=1.0, hard_factor=4.0)),
        ("cross", dict(peer_supplier=peers, tolerance=1.0, hard_factor=4.0)),
    ]
    for kind, config in configs:
        new_det = _LIBRARY[kind](kind, **config)
        ref_det = _REFERENCE[kind](kind, **config)
        for i, (reading, now) in enumerate(zip(readings, nows)):
            peer_box[:] = readings[max(0, i - 3):i]
            if i == 9:
                new_det.reset()
                ref_det.reset()
            assert _verdict_bits(new_det.check(reading, now)) == _verdict_bits(
                ref_det.check(reading, now)
            ), (kind, i)
        assert (new_det.evaluations, new_det.detections) == (
            ref_det.evaluations, ref_det.detections
        )


_VERDICT_LISTS = [
    [],
    [DetectorVerdict("a", 0.0, True)],
    [DetectorVerdict("a", 0.5, True), DetectorVerdict("b", 0.25)],
    [DetectorVerdict("a", 0.2), DetectorVerdict("b", 0.6), DetectorVerdict("c", 1.0)],
    [DetectorVerdict("a", 0.1), DetectorVerdict("b", 1.0, True), DetectorVerdict("c", 0.3)],
    [DetectorVerdict("a", 0.3), DetectorVerdict("b", 0.0), DetectorVerdict("c", 0.7)],
]


@pytest.mark.parametrize("policy", list(ValidityPolicy))
@pytest.mark.parametrize("floor", [0.0, 0.25])
@pytest.mark.parametrize("verdicts", _VERDICT_LISTS)
def test_combine_and_assess_agree(policy, floor, verdicts):
    raw = SensorReading("q", 1.0, 0.0)
    fmu = FaultManagementUnit(policy=policy, floor=floor)
    assessment = fmu.combine(iter(verdicts))
    annotated = fmu.assess(raw, iter(verdicts))
    validity, dominant = _ref_combine(policy, floor, verdicts)
    assert _bits(assessment.validity) == _bits(validity)
    assert assessment.dominant_triggered is dominant
    assert assessment.verdicts == verdicts
    assert _bits(annotated.validity) == _bits(float(min(1.0, max(0.0, validity))))
    assert fmu.assessments == 2
    assert fmu.invalidations == (2 if dominant else 0)
