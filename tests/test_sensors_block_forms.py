"""Block forms of the sensor layer equal its per-sample path, bit for bit.

Each detector's ``suspicions`` must equal ``check`` called sample by
sample; the fault-management unit's ``block_validity`` must equal
``assess``; a physical sensor's ``sample_block`` must equal ``sample``; and
the fusion means' block forms must equal the per-sample functions.  The
sequences include NaN and infinite values, runs of repeated values and time
steps that do not advance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenario.sensor_sweep import RIG
from repro.sensors.abstract_sensor import AbstractSensor, PhysicalSensor
from repro.sensors.detectors import (
    RangeDetector,
    RateLimitDetector,
    StuckAtDetector,
    TimeoutDetector,
)
from repro.sensors.faults import (
    DelayFault,
    PermanentOffsetFault,
    SensorFault,
    SporadicOffsetFault,
    StochasticOffsetFault,
    StuckAtFault,
)
from repro.sensors.fusion import (
    naive_mean,
    naive_mean_block,
    validity_weighted_mean,
    validity_weighted_mean_block,
)
from repro.sensors.readings import SensorReading
from repro.sensors.validity import FaultManagementUnit, ValidityPolicy
from repro.sim.rng import ChunkedNormals

SPECIAL = (float("nan"), float("inf"), float("-inf"), 0.0, -0.0, 50.0, 250.0, -1.0)

#: Values: plain floats, specials, and runs of one repeated value.
values_st = st.lists(
    st.tuples(
        st.one_of(st.floats(-300, 300), st.sampled_from(SPECIAL)),
        st.integers(min_value=1, max_value=12),
    ),
    min_size=0,
    max_size=12,
).map(lambda runs: [value for value, repeat in runs for _ in range(repeat)])

#: Time steps: mostly forward, with zero, backward and non-finite steps.
steps_st = st.one_of(
    st.sampled_from((0.05, 0.05, 0.0, -0.05, 1e-9, float("nan"), float("inf"))),
    st.floats(-1.0, 1.0),
)


@st.composite
def sequences(draw):
    values = draw(values_st)
    steps = draw(st.lists(steps_st, min_size=len(values), max_size=len(values)))
    times = list(np.cumsum([0.0] + steps[:-1])) if values else []
    return values, [float(t) for t in times]


detectors_st = st.one_of(
    st.builds(
        lambda low, width: RangeDetector(low=low, high=low + width),
        st.floats(-100, 100),
        st.sampled_from((0.0, 1.0, 200.0, float("inf"))),
    ),
    st.builds(
        RateLimitDetector,
        max_rate=st.sampled_from((1e-6, 0.5, 30.0, 1e6)),
        hard_factor=st.sampled_from((1.5, 4.0, 10.0)),
    ),
    st.builds(
        StuckAtDetector,
        window=st.integers(min_value=2, max_value=12),
        epsilon=st.sampled_from((0.0, 1e-9, 0.5, 5.0, -1.0)),
        # min_run <= 1 suspects from the first sample; min_run > window never.
        min_run=st.integers(min_value=-2, max_value=14),
    ),
)


def assert_bitwise(block, scalar):
    block = np.asarray(block, dtype=float)
    scalar = np.asarray(scalar, dtype=float)
    assert block.shape == scalar.shape
    nan = np.isnan(scalar)
    assert (np.isnan(block) == nan).all()
    assert block[~nan].tobytes() == scalar[~nan].tobytes()


def scalar_run(detectors, values, times, fmu=None):
    """Per-sample suspicions of each detector (and the validity, with ``fmu``)."""
    suspicions = [[] for _ in detectors]
    validity = []
    for value, t in zip(values, times):
        raw = SensorReading("range", value, t)
        verdicts = [detector.check(raw, t) for detector in detectors]
        for row, verdict in zip(suspicions, verdicts):
            row.append(verdict.suspicion)
        if fmu is not None:
            validity.append(fmu.assess(raw, verdicts).validity)
    return suspicions, validity


class TestDetectorBlockForms:
    @given(detector=detectors_st, sequence=sequences())
    @settings(max_examples=200, deadline=None)
    def test_suspicions_equal_check_sample_by_sample(self, detector, sequence):
        values, times = sequence
        block = detector.suspicions(np.array(values, dtype=float), np.array(times))
        (scalar,), _ = scalar_run([detector], values, times)
        assert_bitwise(block, scalar)

    @given(detector=detectors_st, rows=st.lists(sequences(), min_size=2, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_leading_axes_are_independent_rows(self, detector, rows):
        count = min(len(values) for values, _ in rows)
        times = rows[0][1][:count]
        matrix = np.array([values[:count] for values, _ in rows], dtype=float).reshape(
            len(rows), count
        )
        block = detector.suspicions(matrix, np.array(times))
        for row in range(len(rows)):
            assert_bitwise(block[row], detector.suspicions(matrix[row], np.array(times)))

    @given(
        stack=st.lists(detectors_st, min_size=0, max_size=4),
        floor=st.sampled_from((0.0, 0.3, 0.9)),
        sequence=sequences(),
    )
    @settings(max_examples=200, deadline=None)
    def test_product_block_validity_equals_assess(self, stack, floor, sequence):
        values, times = sequence
        fmu = FaultManagementUnit(policy=ValidityPolicy.PRODUCT, floor=floor)
        array, stamps = np.array(values, dtype=float), np.array(times)
        block = fmu.block_validity(
            [(d.dominant, d.suspicions(array, stamps)) for d in stack], array.shape
        )
        _, scalar = scalar_run(stack, values, times, fmu)
        assert_bitwise(block, scalar)

    def test_block_validity_matches_scalar_on_nan(self):
        # A NaN value fails closed in the block form as in the per-sample
        # stack; so does a value outside the range.
        values = [50.0, float("nan"), 51.0, 250.0, 52.0, 52.5]
        now = [0.05 * t for t in range(len(values))]
        sensor = RIG.build(lambda t: 0.0, rng=np.random.default_rng(0))
        block = sensor.assess_block(np.array([values]), np.array(now))[0]
        _, scalar = scalar_run(sensor.detectors, values, now, FaultManagementUnit())
        assert block.tolist() == scalar
        assert scalar[1] == 0.0 and scalar[2] == 0.0 and scalar[3] == 0.0


class TestBlockFormEligibility:
    def test_stock_detectors_and_product_policy_have_block_forms(self):
        for detector in RIG.detectors():
            assert detector.has_block_form
        assert not TimeoutDetector(max_age=1.0).has_block_form
        assert FaultManagementUnit().has_block_form
        for policy in (ValidityPolicy.WORST_CASE, ValidityPolicy.MEAN):
            assert not FaultManagementUnit(policy=policy).has_block_form

    def test_sensor_block_form_rejects_overridden_scalar_math(self):
        class Renamed(StuckAtDetector):
            """Inherits check and its block form together."""

        class ScalarOnly(StuckAtDetector):
            def check(self, reading, now):
                return self._clear()

        class Both(StuckAtDetector):
            def check(self, reading, now):
                return self._clear()

            def suspicions(self, values, times):
                return np.zeros(np.shape(values))

        class BlockOnly(ScalarOnly):
            def suspicions(self, values, times):
                return np.zeros(np.shape(values))

        assert Renamed(window=10, min_run=4).has_block_form
        assert not ScalarOnly(window=10, min_run=4).has_block_form
        assert Both(window=10, min_run=4).has_block_form
        assert not BlockOnly(window=10, min_run=4).has_block_form

        def sensor(*detectors, policy=ValidityPolicy.PRODUCT):
            physical = PhysicalSensor("s", "range", lambda t: 1.0)
            return AbstractSensor(physical, detectors=list(detectors), policy=policy)

        assert sensor(RangeDetector(0.0, 1.0), Renamed()).has_block_form
        assert not sensor(RangeDetector(0.0, 1.0), ScalarOnly()).has_block_form
        assert not sensor(TimeoutDetector(max_age=1.0)).has_block_form
        assert not sensor(policy=ValidityPolicy.MEAN).has_block_form

    def test_only_dropping_faults_lose_the_block_form(self):
        def sensor(fault):
            built = RIG.build(lambda t: 1.0, rng=np.random.default_rng(0))
            built.physical.inject(fault, start=0.0)
            return built

        for fault in (
            StuckAtFault(),
            PermanentOffsetFault(),
            DelayFault(),
            SporadicOffsetFault(),
            StochasticOffsetFault(),
        ):
            assert not fault.may_drop
            assert sensor(fault).has_block_form
        dropping = DelayFault(drop_probability=0.1)
        assert dropping.may_drop
        assert not sensor(dropping).has_block_form
        assert SensorFault().may_drop  # unknown subclasses keep the per-sample path
        # A dropped sample has no place in a block: sample_block raises.
        always = sensor(DelayFault(drop_probability=1.0))
        with pytest.raises(ValueError, match="dropped"):
            always.physical.sample_block(np.zeros(3), np.zeros(3))
        # The per-instant branch never pre-draws noise.
        with pytest.raises(ValueError, match="unbatched"):
            always.physical._noise.predraw(3)


faults_st = st.lists(
    st.tuples(
        st.one_of(
            st.builds(StuckAtFault),
            st.builds(StuckAtFault, stuck_value=st.sampled_from((3, -2.5))),
            st.builds(PermanentOffsetFault, offset=st.sampled_from((5.0, -0.3, 1e300))),
            st.builds(DelayFault, delay=st.sampled_from((0.2, 1.0))),
        ),
        st.sampled_from((0.0, 0.1, 0.32, 0.5)),
        st.sampled_from((0.2, 0.45, float("inf"))),
    ),
    max_size=3,
)


drawing_faults_st = st.lists(
    st.tuples(
        st.one_of(
            st.builds(
                SporadicOffsetFault,
                offset=st.sampled_from((10.0, -0.5)),
                probability=st.sampled_from((0.2, 1.0)),
            ),
            st.builds(StochasticOffsetFault, sigma=st.sampled_from((3.0, 0.1))),
        ),
        st.sampled_from((0.0, 0.1, 1.0, 2.0)),
        st.sampled_from((0.45, 3.0, 5.0, float("inf"))),
    ),
    min_size=1,
    max_size=2,
)


@st.composite
def stacked_faults(draw):
    """Drawing and RNG-silent fault windows, in any injection order."""
    return draw(st.permutations(draw(drawing_faults_st) + draw(faults_st)))


def assert_block_equals_read(faults, sigma, seed, steps, chunk):
    """``sample_block`` plus ``assess_block`` equals ``read`` per sample."""

    def build():
        physical = PhysicalSensor(
            "s", "range", lambda t: 10.0 + np.sin(t), noise_sigma=sigma,
            rng=np.random.default_rng(seed),
        )
        physical._noise.chunk = chunk
        for fault, start, end in faults:
            # A fresh fault per sensor: faults keep per-activation state.
            physical.inject(type(fault)(**vars(fault)), start, max(start, end))
        return AbstractSensor(physical, detectors=RIG.detectors())

    now = [float(t) for t in np.cumsum(steps)]
    scalar_sensor, block_sensor = build(), build()
    assert block_sensor.has_block_form
    readings = [scalar_sensor.read(t) for t in now]
    values = block_sensor.physical.sample_block(
        np.array(now), np.array([10.0 + np.sin(t) for t in now])
    )
    validity = block_sensor.assess_block(values, np.array(now))
    assert_bitwise(values, [r.value for r in readings])
    assert_bitwise(validity, [r.validity for r in readings])
    # The noise stream is left where the per-sample calls leave it.
    assert block_sensor.physical._noise.next() == scalar_sensor.physical._noise.next()


class TestPhysicalSensorBlock:
    @given(
        faults=faults_st,
        sigma=st.sampled_from((0.0, 0.3)),
        seed=st.integers(0, 1000),
        steps=st.lists(st.sampled_from((0.05, 0.05, 0.0, -0.1)), min_size=1, max_size=40),
        chunk=st.sampled_from((1, 7, 128)),
    )
    @settings(max_examples=150, deadline=None)
    def test_sample_block_equals_sample(self, faults, sigma, seed, steps, chunk):
        assert_block_equals_read(faults, sigma, seed, steps, chunk)

    @given(
        faults=stacked_faults(),
        sigma=st.sampled_from((0.0, 0.3)),
        seed=st.integers(0, 1000),
        steps=st.lists(st.sampled_from((0.05, 0.25, 0.0, -0.1)), min_size=1, max_size=40),
        chunk=st.sampled_from((1, 7, 128)),
    )
    @settings(max_examples=150, deadline=None)
    def test_drawing_faults_sample_per_instant_into_the_block(
        self, faults, sigma, seed, steps, chunk
    ):
        assert_block_equals_read(faults, sigma, seed, steps, chunk)

    def test_sporadic_window_overlapping_a_stuck_at_window(self):
        faults = [(SporadicOffsetFault(probability=0.5), 1.0, 3.0), (StuckAtFault(), 2.0, 5.0)]
        assert_block_equals_read(faults, 0.3, 7, [0.1] * 60, 128)

    def test_predraw_continues_the_stream_next_would_give(self):
        reference = ChunkedNormals(np.random.default_rng(3), chunk=7)
        want = [reference.next() for _ in range(60)]
        noise = ChunkedNormals(np.random.default_rng(3), chunk=7)
        got = [noise.next() for _ in range(3)]
        for count in (0, 2, 20, 14):
            got += noise.predraw(count).tolist()
        got += [noise.next() for _ in range(21)]
        assert got == want

    def test_predraw_refuses_an_unbatched_stream(self):
        noise = ChunkedNormals(np.random.default_rng(0), unbatched=lambda: True)
        with pytest.raises(ValueError, match="unbatched"):
            noise.predraw(4)


class TestFusionBlockForms:
    @given(
        rows=st.lists(
            st.lists(
                st.tuples(
                    st.one_of(st.floats(-1e3, 1e3), st.sampled_from(SPECIAL)),
                    st.sampled_from((0.0, 0.05, 0.0500001, 0.3, 1.0)),
                ),
                min_size=6,
                max_size=6,
            ),
            min_size=1,
            max_size=4,
        ),
        min_validity=st.sampled_from((0.0, 0.05)),
    )
    @settings(max_examples=200, deadline=None)
    def test_means_equal_the_per_sample_functions(self, rows, min_validity):
        values = [np.array([value for value, _ in row]) for row in rows]
        validities = [np.array([validity for _, validity in row]) for row in rows]
        naive = naive_mean_block(values)
        weighted, defined = validity_weighted_mean_block(values, validities, min_validity)
        for t in range(6):
            readings = [
                SensorReading("range", float(v[t]), 0.0, validity=float(w[t]))
                for v, w in zip(values, validities)
            ]
            assert_bitwise(naive[t], naive_mean(readings).value)
            fused = validity_weighted_mean(readings, min_validity=min_validity)
            assert bool(defined[t]) == (fused is not None)
            if fused is not None:
                assert_bitwise(weighted[t], fused.value)
