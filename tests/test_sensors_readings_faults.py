"""Tests for sensor readings, the five fault classes and the fault injector."""

import math

import numpy as np
import pytest

from repro.sensors.faults import (
    DelayFault,
    FaultClass,
    PermanentOffsetFault,
    SporadicOffsetFault,
    StochasticOffsetFault,
    StuckAtFault,
    make_fault,
)
from repro.sensors.injector import FaultActivation, FaultInjector
from repro.sensors.readings import SensorReading


def reading(value=10.0, timestamp=0.0, validity=1.0, error_bound=1.0):
    return SensorReading(
        quantity="range", value=value, timestamp=timestamp, validity=validity, error_bound=error_bound
    )


class TestSensorReading:
    def test_interval_is_symmetric_around_value(self):
        r = reading(value=10.0, error_bound=2.0)
        assert r.interval == (8.0, 12.0)

    def test_validity_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            reading(validity=1.5)
        with pytest.raises(ValueError):
            reading(validity=-0.1)

    def test_negative_error_bound_rejected(self):
        with pytest.raises(ValueError):
            reading(error_bound=-1.0)
        with pytest.raises(ValueError):
            reading(error_bound=float("nan"))

    def test_with_validity_clamps_into_range(self):
        assert reading().with_validity(2.0).validity == 1.0
        assert reading().with_validity(-1.0).validity == 0.0

    def test_with_validity_keeps_a_fully_trusted_reading(self):
        r = reading()
        assert r.with_validity(1.0) is r
        assert r.with_validity(0.5) is not r

    def test_with_validity_copies_when_only_equal(self):
        # -0.0 == 0.0 and 1 == 1.0, but the copy's validity is a positive float.
        r = reading(validity=-0.0).with_validity(0.0)
        assert math.copysign(1.0, r.validity) == 1.0
        r = reading(validity=1).with_validity(1.0)
        assert type(r.validity) is float

    def test_age_and_freshness(self):
        r = reading(timestamp=5.0)
        assert r.age(7.0) == 2.0
        assert r.is_fresh(7.0, max_age=3.0)
        assert not r.is_fresh(9.0, max_age=3.0)

    def test_is_valid(self):
        assert reading(validity=0.1).is_valid
        assert not reading(validity=0.0).is_valid


class TestFaultClasses:
    def setup_method(self):
        self.rng = np.random.default_rng(0)

    def test_permanent_offset_adds_bias(self):
        fault = PermanentOffsetFault(offset=5.0)
        assert fault.apply(reading(10.0), self.rng).value == 15.0
        assert fault.fault_class() is FaultClass.PERMANENT_OFFSET

    def test_sporadic_offset_sometimes_corrupts(self):
        fault = SporadicOffsetFault(offset=100.0, probability=0.5)
        values = [fault.apply(reading(10.0), self.rng).value for _ in range(200)]
        corrupted = [v for v in values if abs(v - 10.0) > 1.0]
        untouched = [v for v in values if abs(v - 10.0) <= 1.0]
        assert corrupted and untouched

    def test_stochastic_offset_adds_noise(self):
        fault = StochasticOffsetFault(sigma=2.0)
        values = [fault.apply(reading(10.0), self.rng).value for _ in range(500)]
        assert np.std(values) > 1.0

    def test_stuck_at_freezes_first_value(self):
        fault = StuckAtFault()
        assert fault.apply(reading(10.0), self.rng).value == 10.0
        assert fault.apply(reading(20.0), self.rng).value == 10.0
        fault.reset()
        assert fault.apply(reading(30.0), self.rng).value == 30.0

    def test_stuck_at_explicit_value(self):
        fault = StuckAtFault(stuck_value=-1.0)
        assert fault.apply(reading(10.0), self.rng).value == -1.0

    def test_delay_fault_can_drop_samples(self):
        fault = DelayFault(drop_probability=1.0)
        assert fault.apply(reading(10.0), self.rng) is None

    def test_make_fault_covers_all_classes(self):
        for fault_class in FaultClass:
            fault = make_fault(fault_class, magnitude=2.0)
            assert fault.fault_class() is fault_class


class TestFaultInjector:
    def test_activation_window_respected(self):
        injector = FaultInjector(rng=np.random.default_rng(0))
        injector.add(PermanentOffsetFault(offset=5.0), start=10.0, end=20.0)
        assert injector.process(reading(1.0), now=5.0).value == 1.0
        assert injector.process(reading(1.0), now=15.0).value == 6.0
        assert injector.process(reading(1.0), now=25.0).value == 1.0

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            FaultActivation(fault=PermanentOffsetFault(), start=5.0, end=1.0)

    def test_multiple_active_faults_compose(self):
        injector = FaultInjector(rng=np.random.default_rng(0))
        injector.add(PermanentOffsetFault(offset=5.0), start=0.0)
        injector.add(PermanentOffsetFault(offset=2.0), start=0.0)
        assert injector.process(reading(1.0), now=1.0).value == 8.0

    def test_stuck_at_resets_after_window(self):
        injector = FaultInjector(rng=np.random.default_rng(0))
        injector.add(StuckAtFault(), start=0.0, end=10.0)
        assert injector.process(reading(3.0), now=1.0).value == 3.0
        assert injector.process(reading(9.0), now=2.0).value == 3.0
        # Window closes; the fault's frozen value must be cleared.
        injector.process(reading(5.0), now=11.0)
        injector.add(StuckAtFault(), start=20.0, end=30.0)
        assert injector.process(reading(7.0), now=21.0).value == 7.0

    def test_drop_counted(self):
        injector = FaultInjector(rng=np.random.default_rng(0))
        injector.add(DelayFault(drop_probability=1.0), start=0.0)
        assert injector.process(reading(1.0), now=0.5) is None
        assert injector.dropped_count == 1

    def test_active_faults_listing(self):
        injector = FaultInjector()
        injector.add(PermanentOffsetFault(), start=0.0, end=10.0)
        injector.add(StuckAtFault(), start=20.0)
        assert len(injector.active_faults(5.0)) == 1
        assert len(injector.active_faults(25.0)) == 1
        assert len(injector.active_faults(15.0)) == 0
