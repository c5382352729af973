"""Tests for physical/abstract/reliable sensors and the MOSAIC node."""

import numpy as np
import pytest

from repro.sensors.abstract_sensor import (
    AbstractReliableSensor,
    AbstractSensor,
    AnalyticalModel,
    PhysicalSensor,
)
from repro.sensors.detectors import RangeDetector, StuckAtDetector, TimeoutDetector
from repro.sensors.faults import (
    DelayFault,
    PermanentOffsetFault,
    SporadicOffsetFault,
    StuckAtFault,
)
from repro.sensors.mosaic import ApplicationModule, ElectronicDataSheet, MosaicNode
from repro.sim.kernel import Simulator


def make_physical(name="s", truth=lambda t: 10.0, noise=0.0, seed=0):
    return PhysicalSensor(
        name=name, quantity="range", truth_fn=truth, noise_sigma=noise,
        rng=np.random.default_rng(seed),
    )


class TestPhysicalSensor:
    def test_sample_returns_truth_without_noise(self):
        sensor = make_physical(truth=lambda t: 42.0)
        assert sensor.sample(1.0).value == 42.0

    def test_noise_applied(self):
        sensor = make_physical(noise=1.0)
        values = [sensor.sample(i * 0.1).value for i in range(100)]
        assert np.std(values) > 0.5

    def test_fault_injection_hooks_into_sampling(self):
        sensor = make_physical()
        sensor.inject(PermanentOffsetFault(offset=3.0), start=0.0)
        assert sensor.sample(1.0).value == 13.0

    def test_dropped_sample_returns_none(self):
        sensor = make_physical()
        sensor.inject(DelayFault(drop_probability=1.0), start=0.0)
        assert sensor.sample(1.0) is None

    def test_sequence_numbers_increase(self):
        sensor = make_physical()
        first = sensor.sample(0.0)
        second = sensor.sample(0.1)
        assert second.attributes.sequence == first.attributes.sequence + 1

    def test_rng_drawing_fault_refused_once_noise_is_buffered(self):
        sensor = make_physical(noise=1.0)
        sensor.inject(StuckAtFault(), start=5.0)
        sensor.sample(0.0)  # pre-draws a chunk of noise
        with pytest.raises(ValueError, match="RNG-drawing"):
            sensor.inject(SporadicOffsetFault(), start=1.0)
        sensor.inject(PermanentOffsetFault(), start=1.0)  # RNG-silent: still fine

    def test_rng_drawing_fault_accepted_before_sampling_or_without_noise(self):
        sensor = make_physical(noise=1.0)
        sensor.inject(SporadicOffsetFault(), start=1.0)
        sensor.sample(0.0)  # one draw per sample now, nothing left buffered
        sensor.inject(DelayFault(drop_probability=0.5), start=2.0)
        noiseless = make_physical()
        noiseless.sample(0.0)
        noiseless.inject(SporadicOffsetFault(), start=1.0)


class TestAbstractSensor:
    def test_healthy_reading_has_full_validity(self):
        sensor = AbstractSensor(make_physical(), detectors=[RangeDetector(0.0, 100.0)])
        assert sensor.read(0.0).validity == 1.0

    def test_nan_value_reads_as_invalid(self):
        physical = make_physical(truth=lambda t: float("nan"))
        sensor = AbstractSensor(physical, detectors=[RangeDetector(0.0, 100.0)])
        assert sensor.read(0.0).validity == 0.0

    def test_out_of_range_reading_invalidated(self):
        physical = make_physical()
        physical.inject(PermanentOffsetFault(offset=1000.0), start=0.0)
        sensor = AbstractSensor(physical, detectors=[RangeDetector(0.0, 100.0)])
        assert sensor.read(0.0).validity == 0.0

    def test_stuck_at_fault_lowers_validity(self):
        truth_values = iter(range(100))
        physical = make_physical(truth=lambda t: float(next(truth_values)))
        physical.inject(StuckAtFault(), start=0.0)
        sensor = AbstractSensor(physical, detectors=[StuckAtDetector(window=6, min_run=3)])
        validities = [sensor.read(i * 0.1).validity for i in range(8)]
        assert validities[-1] < 1.0

    def test_omission_counted(self):
        physical = make_physical()
        physical.inject(DelayFault(drop_probability=1.0), start=0.0)
        sensor = AbstractSensor(physical)
        assert sensor.read(0.0) is None
        assert sensor.omissions == 1

    def test_last_reading_tracked(self):
        sensor = AbstractSensor(make_physical())
        reading = sensor.read(1.0)
        assert sensor.last_reading is reading


class TestAbstractReliableSensor:
    def test_fused_value_near_truth_despite_faulty_replica(self):
        healthy_a = AbstractSensor(make_physical("a", seed=1), detectors=[RangeDetector(0, 100)])
        healthy_b = AbstractSensor(make_physical("b", seed=2), detectors=[RangeDetector(0, 100)])
        faulty_physical = make_physical("c", seed=3)
        faulty_physical.inject(PermanentOffsetFault(offset=500.0), start=0.0)
        faulty = AbstractSensor(faulty_physical, detectors=[RangeDetector(0, 100)])
        reliable = AbstractReliableSensor(
            "rel", "range", replicas=[healthy_a, healthy_b, faulty]
        )
        reading = reliable.read(0.0)
        assert abs(reading.value - 10.0) < 1.0

    def test_analytical_model_used_as_extra_contributor(self):
        model = AnalyticalModel(name="kinematic", predict=lambda t: 10.0, error_bound=0.5)
        reliable = AbstractReliableSensor("rel", "range", replicas=[], models=[model])
        reading = reliable.read(0.0)
        assert reading.value == pytest.approx(10.0)

    def test_requires_some_redundancy(self):
        with pytest.raises(ValueError):
            AbstractReliableSensor("rel", "range", replicas=[], models=[])

    def test_marzullo_strategy(self):
        replicas = [
            AbstractSensor(make_physical(str(i), seed=i), detectors=[RangeDetector(0, 100)])
            for i in range(3)
        ]
        reliable = AbstractReliableSensor("rel", "range", replicas=replicas, fusion="marzullo")
        assert abs(reliable.read(0.0).value - 10.0) < 1.0

    def test_unknown_fusion_rejected(self):
        replica = AbstractSensor(make_physical())
        with pytest.raises(ValueError):
            AbstractReliableSensor("rel", "range", replicas=[replica], fusion="magic")


class TestMosaicNode:
    def _node(self, publish=None):
        sensor = AbstractSensor(make_physical(), detectors=[RangeDetector(0.0, 100.0)])
        datasheet = ElectronicDataSheet(node_id="node1", quantity="range", unit="m")
        return MosaicNode(datasheet, sensor, publish=publish)

    def test_step_produces_validity_annotated_output(self):
        node = self._node()
        output = node.step(0.0)
        assert output is not None
        assert output.validity == 1.0
        assert node.outputs

    def test_application_module_detection_feeds_validity(self):
        sensor = AbstractSensor(make_physical())
        datasheet = ElectronicDataSheet(node_id="node1", quantity="range")
        from repro.sensors.detectors import DetectorVerdict

        module = ApplicationModule(
            "detector0",
            detect=lambda reading, now: DetectorVerdict("detector0", 1.0, dominant=True),
            dominant=True,
        )
        node = MosaicNode(datasheet, sensor, modules=[module])
        assert node.step(0.0).validity == 0.0

    def test_transform_module_changes_value(self):
        sensor = AbstractSensor(make_physical())
        datasheet = ElectronicDataSheet(node_id="node1", quantity="range")
        module = ApplicationModule("scaler", transform=lambda r: r.with_value(r.value * 2))
        node = MosaicNode(datasheet, sensor, modules=[module])
        assert node.step(0.0).value == 20.0

    def test_publish_callback_invoked(self):
        published = []
        node = self._node(publish=published.append)
        node.step(0.0)
        assert len(published) == 1

    def test_run_on_simulator_samples_periodically(self):
        sim = Simulator()
        node = self._node()
        node.run_on(sim, period=0.1)
        sim.run_until(1.0)
        assert len(node.outputs) == 11

    def test_datasheet_round_trip(self):
        sheet = ElectronicDataSheet(node_id="n", quantity="speed", unit="m/s", accuracy=0.1)
        data = sheet.to_dict()
        assert data["node_id"] == "n"
        assert data["unit"] == "m/s"

    def test_omission_counted(self):
        physical = make_physical()
        physical.inject(DelayFault(drop_probability=1.0), start=0.0)
        sensor = AbstractSensor(physical)
        node = MosaicNode(ElectronicDataSheet(node_id="n", quantity="range"), sensor)
        assert node.step(0.0) is None
        assert node.omissions == 1
