"""The E2 sensor sweep: the block sweep, the factory and the vector backend.

``sensor_validity_sweep`` must give, for every seed and every fault class,
the bytes reading each replica sample by sample gives; the factory and the
vector program must always take it; a sweep that samples nothing, or fuses
nothing, must fail instead of storing ``NaN`` as a measurement; and the
paper's E2 claim must hold on every seed, not only on the mean.
"""

import json
import math

import numpy as np
import pytest

import repro.scenario.sensor_sweep as sweep_module
from repro.experiments import ParallelCampaignRunner, ParameterGrid, ResultStore
from repro.experiments.registry import load_builtin_scenarios
from repro.experiments.spec import _ENGINE_EXCLUDED
from repro.scenario import SensorRig
from repro.scenario.sensor_sweep import sensor_validity_sweep
from repro.sensors.detectors import RangeDetector, RateLimitDetector, StuckAtDetector
from repro.sensors.faults import FaultClass, make_fault
from repro.sensors.fusion import naive_mean, validity_weighted_mean
from repro.vectorized import PROGRAMS, VectorBatchBackend

REGISTRY = load_builtin_scenarios()
FAULT_CLASSES = [fc.value for fc in FaultClass]
VARIANTS = {
    "defaults": {},
    "samples=2000": {"samples": 2000},
    "fault_start=0": {"fault_start": 0.0},
    "fault_start=1e9": {"fault_start": 1e9},
    "magnitude=60": {"magnitude": 60.0},
    "period=0.5": {"period": 0.5},
    "period=1e-4": {"period": 1e-4},
    "true_value=199": {"true_value": 199.0},
    "true_value=-1": {"true_value": -1.0},
}


def as_bytes(result):
    return json.dumps(result, sort_keys=True)


def per_sample_reference(seed, fault_class="stuck_at", magnitude=3.0, samples=400,
                         period=0.05, fault_start=5.0, true_value=50.0):
    """E2 for one seed with each replica read sample by sample, then scored
    by the sweep's ``_results``."""
    now, truth = sweep_module._instants(samples, period, true_value)
    replicas = sweep_module._replicas(seed, fault_class, magnitude, fault_start, true_value)
    # Replicas share no state, so reading one after another equals reading
    # them in turn at each instant.  E2's faults never drop a sample.
    rows = [[replica.read(t) for t in now.tolist()] for replica in replicas]
    values = [np.array([[reading.value for reading in row]]) for row in rows]
    validity = [np.array([[reading.validity for reading in row]]) for row in rows]
    return sweep_module._results(fault_class, fault_start, now, truth, values, validity)[0]


class TestSweepEqualsLoop:
    @pytest.mark.parametrize("variant", list(VARIANTS), ids=list(VARIANTS))
    @pytest.mark.parametrize("fault_class", FAULT_CLASSES)
    def test_sweep_equals_per_sample_loop(self, fault_class, variant):
        params = dict(VARIANTS[variant], fault_class=fault_class)
        seeds = range(24)
        swept = sensor_validity_sweep(seeds, **params)
        assert len(swept) == 24
        for seed, result in zip(seeds, swept):
            assert as_bytes(result) == as_bytes(per_sample_reference(seed, **params)), seed

    def test_sweep_module_is_in_the_engine_fingerprint(self):
        # An edit to the sweep must re-key cached E2 cells; the scenario
        # catalog is the one file the engine fingerprint leaves out.
        path = sweep_module.__file__.replace("\\", "/")
        assert path.endswith("repro/scenario/sensor_sweep.py")
        assert not any(path.endswith(excluded) for excluded in _ENGINE_EXCLUDED)

    def test_empty_seed_list_gives_no_results(self):
        assert sensor_validity_sweep([]) == []


def reference_e2(seed, fault_class="stuck_at", magnitude=3.0, samples=400, period=0.05,
                 fault_start=5.0, true_value=50.0):
    """E2 as the factory computed it before the block sweep: reading by
    reading, fused per instant by ``naive_mean`` and
    ``validity_weighted_mean`` over the ``SensorReading`` objects."""
    rig = SensorRig(
        name="ranging",
        quantity="range",
        noise_sigma=0.3,
        detectors=lambda: [
            RangeDetector(low=0.0, high=200.0),
            RateLimitDetector(max_rate=30.0),
            StuckAtDetector(window=10, min_run=4),
        ],
    )
    truth_fn = lambda t: true_value + 5.0 * np.sin(0.5 * t)
    replicas = [
        rig.build(truth_fn, rng=np.random.default_rng(seed + i), name=f"s{i}") for i in range(3)
    ]
    replicas[0].physical.inject(
        make_fault(FaultClass(fault_class), magnitude=magnitude), start=fault_start
    )
    errors = {"faulty_sensor": [], "naive_mean": [], "validity_weighted": []}
    detected = 0
    fault_samples = 0
    for step in range(samples):
        now = step * period
        truth = true_value + 5.0 * np.sin(0.5 * now)
        readings = [r for r in (rep.read(now) for rep in replicas) if r is not None]
        if not readings:
            continue
        faulty = next((r for r in readings if r.attributes.source_id == "s0"), None)
        if now >= fault_start:
            fault_samples += 1
            if faulty is not None and faulty.validity < 0.99:
                detected += 1
        if faulty is not None:
            errors["faulty_sensor"].append(abs(faulty.value - truth))
        naive = naive_mean(readings)
        weighted = validity_weighted_mean(readings, min_validity=0.05)
        if naive is not None:
            errors["naive_mean"].append(abs(naive.value - truth))
        if weighted is not None:
            errors["validity_weighted"].append(abs(weighted.value - truth))
    return {
        "fault_class": fault_class,
        "detection_coverage": detected / fault_samples if fault_samples else 0.0,
        "faulty_sensor_mae": float(np.mean(errors["faulty_sensor"])),
        "naive_mean_mae": float(np.mean(errors["naive_mean"])),
        "validity_weighted_mae": float(np.mean(errors["validity_weighted"])),
    }


class TestFactoryEqualsPerInstantFusion:
    """Both paths fuse and score in block code; this pins the factory, all
    five fault classes, to the per-instant ``SensorReading`` fusion."""

    @pytest.mark.parametrize(
        "variant", ["defaults", "magnitude=60", "fault_start=0", "true_value=-1"]
    )
    @pytest.mark.parametrize("fault_class", [fc.value for fc in FaultClass])
    def test_factory_equals_reference(self, fault_class, variant):
        factory = REGISTRY.get("sensor_validity").factory
        params = dict(VARIANTS[variant], fault_class=fault_class)
        for seed in range(3):
            want = as_bytes(reference_e2(seed, **params))
            assert as_bytes(factory(seed, **params)) == want, seed


class TestFactoryDispatch:
    @pytest.mark.parametrize("fault_class", FAULT_CLASSES)
    def test_factory_always_runs_the_sweep(self, fault_class, monkeypatch):
        spec = REGISTRY.get("sensor_validity")
        want = per_sample_reference(3, fault_class=fault_class, samples=150)
        calls = []
        sweep = sweep_module.sensor_validity_sweep

        def recording(seeds, *args, **kwargs):
            calls.append(list(seeds))
            return sweep(seeds, *args, **kwargs)

        monkeypatch.setattr(sweep_module, "sensor_validity_sweep", recording)
        got = spec.factory(3, fault_class=fault_class, samples=150)
        assert calls == [[3]]
        assert as_bytes(got) == as_bytes(want)

    def test_every_fault_class_has_a_block_form(self):
        program = PROGRAMS["sensor_validity"]
        for fault_class in FAULT_CLASSES:
            replicas = sweep_module._replicas(0, fault_class, 3.0, 0.0, 50.0)
            assert all(replica.has_block_form for replica in replicas), fault_class
            assert program.supports_params({"fault_class": fault_class})
        assert not program.supports_params({"fault_class": "no_such_fault"})
        with pytest.raises(ValueError):
            sensor_validity_sweep([0], fault_class="no_such_fault")


class TestEmptySweepFails:
    @pytest.mark.parametrize(
        "params",
        [
            {"samples": 0},
            {"samples": -3},
            {"period": 0.0},
            {"period": -0.05},
            {"period": math.nan},
            {"period": math.inf},
        ],
        ids=["samples=0", "samples<0", "period=0", "period<0", "period=nan", "period=inf"],
    )
    @pytest.mark.parametrize("fault_class", ["stuck_at", "sporadic_offset"])
    def test_sweep_that_samples_nothing_raises(self, fault_class, params):
        with pytest.raises(ValueError, match="samples|period"):
            sensor_validity_sweep([0], fault_class=fault_class, **params)
        with pytest.raises(ValueError, match="samples|period"):
            per_sample_reference(0, fault_class=fault_class, **params)

    def test_empty_cell_is_a_failed_record_not_nan(self, tmp_path):
        # Used to store "faulty_sensor_mae": NaN with "status": "ok".
        inline = tmp_path / "inline.jsonl"
        result = ParallelCampaignRunner(jobs=1, registry=REGISTRY, store=ResultStore(inline)).run(
            "sensor_validity", params={"samples": 0}, seeds=[1]
        )
        (record,) = result.records
        assert record.status == "failed"
        assert record.error_class == "ValueError"
        assert "NaN" not in inline.read_text()

    def test_vector_backend_stores_the_same_failed_records(self, tmp_path):
        stores = {}
        for name, backend in (("inline", None), ("vector", VectorBatchBackend())):
            path = tmp_path / f"{name}.jsonl"
            ParallelCampaignRunner(
                jobs=1, registry=REGISTRY, store=ResultStore(path), backend=backend
            ).run("sensor_validity", params={"samples": 0}, seeds=range(4))
            stores[name] = path.read_bytes()
        assert stores["vector"] == stores["inline"]
        assert all(json.loads(line)["status"] == "failed" for line in stores["inline"].splitlines())


class TestUndefinedFusionFails:
    """With every reading outside ``RangeDetector``'s [0, 200], no instant
    has a replica above ``MIN_VALIDITY``: the weighted error is undefined."""

    @pytest.mark.parametrize("fault_class", ["stuck_at", "sporadic_offset"])
    def test_sweep_with_nothing_fused_raises(self, fault_class):
        with pytest.raises(ValueError, match="validity"):
            sensor_validity_sweep(range(3), fault_class=fault_class, true_value=-100.0)

    def test_inline_and_vector_store_the_same_failed_records(self, tmp_path):
        # Used to store "validity_weighted_mae": NaN with "status": "ok".
        stores = {}
        for name, backend in (("inline", None), ("vector", VectorBatchBackend())):
            path = tmp_path / f"{name}.jsonl"
            ParallelCampaignRunner(
                jobs=1, registry=REGISTRY, store=ResultStore(path), backend=backend
            ).run("sensor_validity", params={"true_value": -100.0}, seeds=range(4))
            stores[name] = path.read_bytes()
        assert stores["vector"] == stores["inline"]
        assert b"NaN" not in stores["inline"]
        records = [json.loads(line) for line in stores["inline"].splitlines()]
        assert len(records) == 4
        assert all(r["status"] == "failed" and r["error_class"] == "ValueError" for r in records)


class TestNonFiniteMagnitudeFails:
    """A non-finite fault magnitude used to store ``NaN`` or ``Infinity``
    errors with ``status: ok``."""

    @pytest.mark.parametrize("magnitude", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("fault_class", FAULT_CLASSES)
    def test_make_fault_raises(self, fault_class, magnitude):
        with pytest.raises(ValueError, match="finite"):
            make_fault(FaultClass(fault_class), magnitude=magnitude)

    @pytest.mark.parametrize("magnitude", [math.nan, math.inf], ids=["nan", "inf"])
    def test_inline_and_vector_store_the_same_failed_records(self, tmp_path, magnitude):
        stores = {}
        for name, backend in (("inline", None), ("vector", VectorBatchBackend())):
            path = tmp_path / f"{name}.jsonl"
            ParallelCampaignRunner(
                jobs=1, registry=REGISTRY, store=ResultStore(path), backend=backend
            ).run(
                "sensor_validity",
                params={"fault_class": "permanent_offset", "magnitude": magnitude},
                seeds=range(3),
            )
            stores[name] = path.read_bytes()
        assert stores["vector"] == stores["inline"]
        records = [json.loads(line) for line in stores["inline"].splitlines()]
        assert len(records) == 3
        assert all(
            r["status"] == "failed" and r["error_class"] == "ValueError" and r["metrics"] == {}
            for r in records
        )


class TestPaperClaimPerSeed:
    """E2 (section IV-B): detectors plus validity-weighted fusion beat naive
    averaging under sensor faults, asserted on every seed."""

    def test_validity_weighted_fusion_wins_on_every_seed(self):
        result = ParallelCampaignRunner(jobs=1, registry=REGISTRY).run(
            "sensor_validity",
            sweep=ParameterGrid(fault_class=tuple(fc.value for fc in FaultClass)),
            seeds=range(32),
        )
        assert result.failures == 0
        assert len(result.records) == 160
        for record in result.records:
            metrics = record.metrics
            cell = (metrics["fault_class"], record.seed)
            assert metrics["validity_weighted_mae"] <= metrics["naive_mean_mae"] + 1e-9, cell
            if metrics["fault_class"] != "delay":
                assert metrics["validity_weighted_mae"] < metrics["faulty_sensor_mae"], cell
