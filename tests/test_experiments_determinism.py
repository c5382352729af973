"""Determinism guarantees of the optimised fast path.

The perf overhaul (tuple-heap kernel, columnar tracing, batched medium delivery,
batched noise draws, chunked spool tasks) must not change a single
observable: same-seed runs produce identical ``events_processed``, identical
trace streams, and byte-identical stores whether a campaign runs serially,
on N spool workers with the default chunk schedule, or in fixed-size tasks.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.distributed import SpoolBackend
from repro.experiments import ParallelCampaignRunner, ParameterGrid
from repro.experiments.store import ResultStore

SCENARIO = "sensor_validity"  # RNG-heavy: noise draws + fault injection
SWEEP = ParameterGrid(fault_class=("stuck_at", "stochastic_offset"))
PARAMS = {"samples": 120}
SEEDS = (1, 2, 3)


def _campaign(tmp_path, label, **spool_kwargs):
    store = ResultStore(tmp_path / f"{label}.jsonl")
    backend = None
    if spool_kwargs:
        backend = SpoolBackend(tmp_path / f"{label}-spool", timeout=120.0, **spool_kwargs)
    runner = ParallelCampaignRunner(store=store, backend=backend)
    result = runner.run(SCENARIO, params=PARAMS, sweep=SWEEP, seeds=SEEDS)
    return result, (tmp_path / f"{label}.jsonl").read_bytes()


class TestCampaignDeterminism:
    def test_schedule_and_task_size_are_byte_identical(self, tmp_path):
        serial, serial_bytes = _campaign(tmp_path, "serial")
        parallel, parallel_bytes = _campaign(tmp_path, "parallel", workers=3)
        batched, batched_bytes = _campaign(tmp_path, "batched", workers=3, task_size=2)

        def blob(result):
            return json.dumps(
                [record.to_json_dict() for record in result.records], sort_keys=True
            )

        assert blob(serial) == blob(parallel) == blob(batched)
        assert serial.aggregates == parallel.aggregates == batched.aggregates
        assert serial_bytes == parallel_bytes == batched_bytes

    def test_fixed_size_tasks_cover_every_cell(self, tmp_path):
        result, _ = _campaign(tmp_path, "odd_chunks", workers=2, task_size=4)
        assert result.run_count == len(SEEDS) * 2
        assert result.failures == 0

    def test_task_size_validated(self, tmp_path):
        with pytest.raises(ValueError):
            SpoolBackend(tmp_path / "spool", workers=2, task_size=0)


class TestSimulationDeterminism:
    def _run_platoon(self):
        from repro.usecases.acc import PlatoonConfig, PlatoonScenario

        scenario = PlatoonScenario(
            PlatoonConfig(
                followers=2, duration=12.0, seed=5, interference_bursts=((4.0, 3.0),)
            )
        )
        results = scenario.run()
        trace_rows = [
            (record.time, record.kind, record.source, sorted(record.fields.items()))
            for record in scenario.trace
        ]
        stats = scenario.medium.stats
        return (
            scenario.simulator.events_processed,
            trace_rows,
            (stats.frames_sent, stats.deliveries, stats.lost_random,
             stats.lost_interference, stats.lost_collision),
            results.collisions,
        )

    def test_same_seed_runs_are_identical(self):
        assert self._run_platoon() == self._run_platoon()


class TestSensorNoiseBatching:
    def _readings(self, fault=None, samples=50):
        from repro.sensors.abstract_sensor import PhysicalSensor

        sensor = PhysicalSensor(
            name="s",
            quantity="range",
            truth_fn=lambda t: 10.0 * t,
            noise_sigma=0.7,
            rng=np.random.default_rng(42),
        )
        if fault is not None:
            sensor.inject(fault, start=1.0)
        values = []
        for step in range(samples):
            reading = sensor.sample(step * 0.1)
            values.append(None if reading is None else reading.value)
        return values

    def test_batched_noise_matches_scalar_reference(self):
        # The reference stream: one scalar normal(0, sigma) per sample.
        rng = np.random.default_rng(42)
        expected = [10.0 * (step * 0.1) + rng.normal(0.0, 0.7) for step in range(50)]
        assert self._readings() == pytest.approx(expected, abs=0.0)

    def test_rng_drawing_fault_disables_prefetch(self):
        from repro.sensors.faults import SporadicOffsetFault

        # With a drawing fault attached, noise and fault draws must interleave
        # exactly as in the unbatched implementation.
        rng = np.random.default_rng(42)
        fault = SporadicOffsetFault(offset=5.0, probability=0.3)
        expected = []
        for step in range(50):
            now = step * 0.1
            value = 10.0 * now + rng.normal(0.0, 0.7)
            if now >= 1.0 and rng.random() < 0.3:
                sign = 1.0 if rng.random() < 0.5 else -1.0
                value += sign * 5.0
            expected.append(value)
        observed = self._readings(SporadicOffsetFault(offset=5.0, probability=0.3))
        assert observed == pytest.approx(expected, abs=0.0)
        assert fault.draws_rng

    def test_non_drawing_fault_keeps_batching(self):
        from repro.sensors.faults import PermanentOffsetFault, StuckAtFault

        assert not StuckAtFault().draws_rng
        assert not PermanentOffsetFault().draws_rng
        # A stuck-at fault freezes the output, so only the pre-fault samples
        # carry noise; those must equal the scalar reference stream.
        rng = np.random.default_rng(42)
        expected_prefix = [10.0 * (step * 0.1) + rng.normal(0.0, 0.7) for step in range(10)]
        observed = self._readings(StuckAtFault(), samples=10)
        assert observed == pytest.approx(expected_prefix, abs=0.0)


class TestManyReceiverDelivery:
    def test_losses_drawn_in_attachment_order(self):
        from repro.network.frames import Frame
        from repro.network.medium import MediumConfig, WirelessMedium
        from repro.sim.kernel import Simulator

        sim = Simulator()
        medium = WirelessMedium(
            sim,
            MediumConfig(base_loss_probability=0.2, communication_range=100.0),
            rng=np.random.default_rng(7),
        )
        deliveries = []
        # 24 receivers; indices 11+ are beyond 100 m.
        for index in range(24):
            distance = 10.0 * index
            medium.attach(
                f"rx{index}",
                receive=lambda frame, t, i=index: deliveries.append((i, t)),
                position_fn=lambda d=distance: (d, 0.0),
            )
        medium.attach("tx", receive=lambda frame, t: None, position_fn=lambda: (0.0, 0.0))
        medium.transmit(Frame(source="tx", size_bits=400))
        sim.run()

        # Reference: one loss draw per in-range receiver, in attachment order.
        rng = np.random.default_rng(7)
        survivors = [index for index in range(11) if not rng.random() < 0.2]
        delivered_at = 400 / 6_000_000.0 + 1e-6
        assert deliveries == [(index, delivered_at) for index in survivors]
        stats = medium.stats
        assert (stats.deliveries, stats.lost_random, stats.lost_out_of_range) == (
            len(survivors),
            11 - len(survivors),
            13,
        )


class TestPerfBudgetStore:
    def test_checked_in_budgets_show_required_speedups(self):
        # BENCH_kernel.json is a frozen record of the speed-ups over the
        # first simulation core; no code writes it.
        bench_path = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"
        workloads = json.loads(bench_path.read_text(encoding="utf-8"))["workloads"]
        acceptance = [
            workloads[key]["speedup"]
            for key in ("e1_platoon_blackouts", "e3_r2t_mac_bursts", "e4_tdma_grid")
        ]
        assert sum(1 for speedup in acceptance if speedup >= 2.0) >= 2


class TestCalibrate:
    def test_calibrate_returns_a_positive_float(self):
        # perfbench records this probe in every run's provenance.
        from repro.experiments.perf import calibrate

        probe = calibrate()
        assert isinstance(probe, float) and probe > 0.0
