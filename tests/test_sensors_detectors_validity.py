"""Tests for failure detectors and the fault-management unit."""

import pytest

from repro.sensors.detectors import (
    CrossValidationDetector,
    DetectorVerdict,
    ModelResidualDetector,
    RangeDetector,
    RateLimitDetector,
    StuckAtDetector,
    TimeoutDetector,
)
from repro.sensors.readings import SensorReading
from repro.sensors.validity import FaultManagementUnit, ValidityPolicy


def reading(value, timestamp=0.0):
    return SensorReading(quantity="q", value=value, timestamp=timestamp)


#: ``hard_factor`` values an excess cannot be divided by ``hard_factor - 1`` for.
BAD_HARD_FACTORS = (1.0, 0.5, -2.0, float("inf"), float("nan"))


class TestRangeDetector:
    def test_inside_range_passes(self):
        verdict = RangeDetector(0.0, 100.0).check(reading(50.0), now=0.0)
        assert verdict.suspicion == 0.0

    def test_outside_range_invalidates(self):
        verdict = RangeDetector(0.0, 100.0).check(reading(150.0), now=0.0)
        assert verdict.suspicion == 1.0
        assert verdict.dominant
        assert verdict.invalidates

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            RangeDetector(10.0, 0.0)

    def test_nan_value_invalidates(self):
        verdict = RangeDetector(0.0, 200.0).check(reading(float("nan")), now=0.0)
        assert verdict.invalidates


class TestRateLimitDetector:
    def test_slow_change_passes(self):
        detector = RateLimitDetector(max_rate=10.0)
        detector.check(reading(0.0, timestamp=0.0), now=0.0)
        verdict = detector.check(reading(0.5, timestamp=0.1), now=0.1)
        assert verdict.suspicion == 0.0

    def test_fast_change_raises_suspicion(self):
        detector = RateLimitDetector(max_rate=10.0)
        detector.check(reading(0.0, timestamp=0.0), now=0.0)
        verdict = detector.check(reading(10.0, timestamp=0.1), now=0.1)
        assert verdict.suspicion > 0.0
        assert not verdict.dominant

    def test_first_reading_never_suspect(self):
        detector = RateLimitDetector(max_rate=1.0)
        assert detector.check(reading(1e9), now=0.0).suspicion == 0.0

    def test_reset_clears_history(self):
        detector = RateLimitDetector(max_rate=1.0)
        detector.check(reading(0.0, timestamp=0.0), now=0.0)
        detector.reset()
        assert detector.check(reading(100.0, timestamp=0.1), now=0.1).suspicion == 0.0

    @pytest.mark.parametrize("hard_factor", BAD_HARD_FACTORS)
    def test_hard_factor_must_be_finite_and_above_one(self, hard_factor):
        # hard_factor=1.0 used to raise ZeroDivisionError in check and give
        # inf/NaN suspicions in the block form.
        with pytest.raises(ValueError, match="hard_factor"):
            RateLimitDetector(max_rate=1.0, hard_factor=hard_factor)


class TestTimeoutDetector:
    def test_fresh_reading_passes(self):
        verdict = TimeoutDetector(max_age=0.5).check(reading(1.0, timestamp=1.0), now=1.2)
        assert verdict.suspicion == 0.0

    def test_stale_reading_invalidates(self):
        verdict = TimeoutDetector(max_age=0.5).check(reading(1.0, timestamp=1.0), now=2.0)
        assert verdict.invalidates

    def test_nan_timestamp_or_clock_invalidates(self):
        detector = TimeoutDetector(max_age=0.5)
        assert detector.check(reading(1.0, timestamp=float("nan")), now=1.0).invalidates
        assert detector.check(reading(1.0, timestamp=1.0), now=float("nan")).invalidates

    def test_reading_from_the_future_is_fresh(self):
        verdict = TimeoutDetector(max_age=0.5).check(reading(1.0, timestamp=3.0), now=1.0)
        assert verdict.suspicion == 0.0


class TestStuckAtDetector:
    def test_constant_stream_detected(self):
        detector = StuckAtDetector(window=6, min_run=3)
        suspicions = [detector.check(reading(5.0, timestamp=i * 0.1), now=i * 0.1).suspicion for i in range(6)]
        assert suspicions[-1] > 0.0

    def test_varying_stream_not_detected(self):
        detector = StuckAtDetector(window=6, min_run=3)
        suspicions = [
            detector.check(reading(float(i), timestamp=i * 0.1), now=i * 0.1).suspicion for i in range(6)
        ]
        assert all(s == 0.0 for s in suspicions)


class TestModelResidualDetector:
    def test_agreeing_model_passes(self):
        detector = ModelResidualDetector(model=lambda t: 10.0, tolerance=1.0)
        assert detector.check(reading(10.5), now=0.0).suspicion == 0.0

    def test_large_residual_raises_suspicion(self):
        detector = ModelResidualDetector(model=lambda t: 10.0, tolerance=1.0)
        assert detector.check(reading(20.0), now=0.0).suspicion > 0.5

    @pytest.mark.parametrize("hard_factor", BAD_HARD_FACTORS)
    def test_hard_factor_must_be_finite_and_above_one(self, hard_factor):
        with pytest.raises(ValueError, match="hard_factor"):
            ModelResidualDetector(model=lambda t: 10.0, tolerance=1.0, hard_factor=hard_factor)


class TestCrossValidationDetector:
    def test_agreement_with_peers_passes(self):
        peers = [reading(10.0), reading(10.2), reading(9.9)]
        detector = CrossValidationDetector(lambda: peers, tolerance=1.0)
        assert detector.check(reading(10.1), now=0.0).suspicion == 0.0

    def test_disagreement_with_peers_detected(self):
        peers = [reading(10.0), reading(10.2), reading(9.9)]
        detector = CrossValidationDetector(lambda: peers, tolerance=1.0)
        assert detector.check(reading(25.0), now=0.0).suspicion > 0.0

    def test_too_few_peers_is_inconclusive(self):
        detector = CrossValidationDetector(lambda: [reading(10.0)], tolerance=1.0)
        assert detector.check(reading(100.0), now=0.0).suspicion == 0.0

    @pytest.mark.parametrize("hard_factor", BAD_HARD_FACTORS)
    def test_hard_factor_must_be_finite_and_above_one(self, hard_factor):
        with pytest.raises(ValueError, match="hard_factor"):
            CrossValidationDetector(lambda: [], tolerance=1.0, hard_factor=hard_factor)


class TestFaultManagementUnit:
    def _verdict(self, suspicion, dominant=False):
        return DetectorVerdict(detector="d", suspicion=suspicion, dominant=dominant)

    def test_no_verdicts_full_validity(self):
        assessment = FaultManagementUnit().combine([])
        assert assessment.validity == 1.0

    def test_dominant_detection_forces_zero(self):
        fmu = FaultManagementUnit()
        assessment = fmu.combine([self._verdict(1.0, dominant=True), self._verdict(0.0)])
        assert assessment.validity == 0.0
        assert assessment.dominant_triggered

    def test_product_policy(self):
        fmu = FaultManagementUnit(policy=ValidityPolicy.PRODUCT)
        assessment = fmu.combine([self._verdict(0.5), self._verdict(0.5)])
        assert assessment.validity == pytest.approx(0.25)

    def test_worst_case_policy(self):
        fmu = FaultManagementUnit(policy=ValidityPolicy.WORST_CASE)
        assessment = fmu.combine([self._verdict(0.3), self._verdict(0.7)])
        assert assessment.validity == pytest.approx(0.3)

    def test_mean_policy(self):
        fmu = FaultManagementUnit(policy=ValidityPolicy.MEAN)
        assessment = fmu.combine([self._verdict(0.2), self._verdict(0.6)])
        assert assessment.validity == pytest.approx(0.6)

    def test_floor_applies(self):
        fmu = FaultManagementUnit(policy=ValidityPolicy.WORST_CASE, floor=0.2)
        assessment = fmu.combine([self._verdict(1.0)])
        assert assessment.validity == pytest.approx(0.2)

    def test_assess_annotates_reading(self):
        fmu = FaultManagementUnit()
        annotated = fmu.assess(reading(1.0), [self._verdict(0.4)])
        assert annotated.validity == pytest.approx(0.6)

    def test_dominant_without_full_suspicion_does_not_invalidate(self):
        verdict = DetectorVerdict(detector="d", suspicion=0.4, dominant=True)
        assert not verdict.invalidates
        assessment = FaultManagementUnit().combine([verdict])
        assert assessment.validity == 1.0

    def test_invalid_floor_rejected(self):
        with pytest.raises(ValueError):
            FaultManagementUnit(floor=1.0)
