"""A campaign cell's identity is encoded once and means the same everywhere.

:meth:`ScenarioSpec.runs` encodes each sweep point's params once
(:func:`repro.experiments.spec.encode_params`) and every key of a cell is
built from that string; records made for a cell take its key.  These tests
hold every key the code builds — run specs, the cache keys the runner looks
up and publishes, and the records of every path (inline execution, cache
hit, worker shard and its ingest, store load, quarantine failure) — to the
reference functions :func:`canonical_key` and :func:`content_cache_key`.
"""

import enum
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.experiments.spec as spec_module
from repro.distributed import CacheIndex, Spool, SpoolBackend
from repro.distributed.spool import settle, shard_cells
from repro.distributed.worker import execute_task
from repro.experiments import (
    ParallelCampaignRunner,
    ResultStore,
    ScenarioRegistry,
    ScenarioSpec,
    canonical_key,
    content_cache_key,
)
from repro.experiments.runner import execute_run
from repro.experiments.spec import Parameter, jsonable


class RawParameter(Parameter):
    """A parameter that keeps whatever value it is given, type included."""

    def coerce(self, raw):
        return raw


def identity_factory(seed, a=None, b=None, c=None):
    return {"value": seed, "a": a}


def _spec(name="identity"):
    return ScenarioSpec(
        name=name,
        factory=identity_factory,
        parameters=tuple(RawParameter(field) for field in ("a", "b", "c")),
        metric_fields=("value", "a"),
    )


class Colour(enum.Enum):
    RED = "red"
    ONE = 1


class RecordingCache(CacheIndex):
    """A cache that records every key the runner looks up or publishes."""

    def __init__(self, root):
        super().__init__(root)
        self.looked_up = []
        self.published = []

    def get(self, key):
        self.looked_up.append(key)
        return super().get(key)

    def put_many(self, pairs):
        pairs = list(pairs)
        self.published.extend(key for key, _ in pairs)
        return super().put_many(pairs)


def _reference_keys(scenario, fingerprint, params, seed):
    """The store key and cache key as they were encoded before the per-point
    encoding existed, straight from ``jsonable`` and ``json.dumps``."""
    payload = json.dumps(jsonable(dict(params)), sort_keys=True, separators=(",", ":"))
    blob = f"{fingerprint}|{payload}|seed={seed}"
    return f"{scenario}|{payload}|seed={seed}", hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _assert_keyed_by_fields(records):
    for record in records:
        assert record.key == canonical_key(record.scenario, record.params, record.seed)


scalars = (
    st.integers(-(10**6), 10**6)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.booleans()
    | st.text(max_size=4)
    | st.none()
    | st.sampled_from(list(Colour))
    | st.integers(-1000, 1000).map(np.int64)
    | st.floats(-1e6, 1e6).map(np.float64)
    | st.booleans().map(np.bool_)
)
values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=3) | st.lists(children, max_size=3).map(tuple),
    max_leaves=6,
)
param_dicts = st.dictionaries(st.sampled_from(["a", "b", "c"]), values, max_size=3)


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    base=param_dicts,
    sweep=st.none() | st.lists(param_dicts, min_size=1, max_size=3),
    seeds=st.lists(st.integers(0, 50), min_size=1, max_size=3, unique=True),
)
def test_every_key_of_every_path_is_the_reference_key(base, sweep, seeds):
    spec = _spec()
    fingerprint = spec.source_fingerprint()
    run_specs = spec.runs(params=base, sweep=sweep, seeds=seeds)
    for run_spec in run_specs:
        key = canonical_key(run_spec.scenario, run_spec.params, run_spec.seed)
        cache_key = content_cache_key(fingerprint, run_spec.params, run_spec.seed)
        assert (run_spec.key, run_spec.cache_key(fingerprint)) == (key, cache_key)
        assert (key, cache_key) == _reference_keys(
            run_spec.scenario, fingerprint, run_spec.params, run_spec.seed
        )
    cache_keys = [content_cache_key(fingerprint, rs.params, rs.seed) for rs in run_specs]
    cell_keys = [run_spec.key for run_spec in run_specs]
    with tempfile.TemporaryDirectory() as root:
        root = Path(root)
        cache = RecordingCache(root / "cache")
        runner = ParallelCampaignRunner(store=ResultStore(root / "cold.jsonl"), cache=cache)
        # Inline execution: a sweep may name one cell twice, so compare in
        # run-list order, not as sets.
        cold = runner.run(spec, params=base, sweep=sweep, seeds=seeds)
        _assert_keyed_by_fields(cold.records)
        assert [record.key for record in cold.records] == cell_keys
        assert cache.looked_up == cache_keys and cache.published == cache_keys
        # Cache hits, under the spec's own name and under an alias of its
        # factory, whose hits must be re-keyed to the alias's cells.
        for name in (spec.name, "alias"):
            cache.looked_up.clear()
            store = root / f"{name}.jsonl"
            warm = ParallelCampaignRunner(store=ResultStore(store), cache=cache).run(
                _spec(name), params=base, sweep=sweep, seeds=seeds
            )
            assert warm.cached == len(run_specs)
            _assert_keyed_by_fields(warm.records)
            assert [record.key for record in warm.records] == [
                canonical_key(name, rs.params, rs.seed) for rs in run_specs
            ]
            assert cache.looked_up == cache_keys
            # Store load.
            loaded = ResultStore(store).records()
            _assert_keyed_by_fields(loaded)
            assert {record.key for record in loaded} == {record.key for record in warm.records}
        assert (root / "cold.jsonl").read_bytes() == (root / f"{spec.name}.jsonl").read_bytes()

        # A worker's shard, its ingest and its settlement.
        spool = Spool(root / "spool", max_task_attempts=1)
        spool.initialise()
        cells = [(rs.params, rs.seed, rs.index) for rs in run_specs]
        tasks = shard_cells(cells, spec.name, task_size=2)
        for task in tasks:
            spool.publish_task(task)
        registry = ScenarioRegistry()
        registry.register(spec)
        worked = [pair for _ in tasks for pair in execute_task(spool.claim_next(), spool, registry)]
        _assert_keyed_by_fields(record for _, record in worked)
        assert [record.key for _, record in sorted(worked)] == cell_keys
        ingested = [pair for task in tasks for pair in spool.read_result_shard(task.task_id)]
        _assert_keyed_by_fields(record for _, record in ingested)
        assert [record.key for _, record in sorted(ingested)] == cell_keys
        key_by_index = {rs.index: rs.key for rs in run_specs}
        settled = settle(spool, key_by_index)
        assert [settled[index].key for index in sorted(settled)] == cell_keys

        # Quarantine failures.
        for task in tasks:
            spool.publish_task(task)
        for _ in tasks:
            assert spool.requeue(spool.claim_next()) == "quarantined"
        failures = [
            pair for task_id in spool.quarantined_task_ids()
            for pair in spool.quarantine_failures(task_id)
        ]
        _assert_keyed_by_fields(record for _, record in failures)
        assert [record.key for _, record in sorted(failures)] == cell_keys


#: The store a ``True``, ``1``, ``1.0`` sweep of seed 1 writes, byte for byte.
MIXED_STORE = "".join(
    '{"key": "identity|{\\"a\\":%s,\\"b\\":null,\\"c\\":null}|seed=1", '
    '"metrics": {"a": %s, "value": 1}, "params": {"a": %s, "b": null, "c": null}, '
    '"scenario": "identity", "seed": 1, "status": "ok"}\n' % (value, value, value)
    for value in ("true", "1", "1.0")
)


def test_true_one_and_one_point_zero_are_three_cells(tmp_path):
    spec = _spec()
    sweep = [{"a": True}, {"a": 1}, {"a": 1.0}]
    run_specs = spec.runs(sweep=sweep, seeds=[1])
    assert len({run_spec.key for run_spec in run_specs}) == 3
    store = tmp_path / "mixed.jsonl"
    ParallelCampaignRunner(store=ResultStore(store)).run(spec, sweep=sweep, seeds=[1])
    assert store.read_text("utf-8") == MIXED_STORE
    # One worker task holds all three: its shard keeps them apart too.
    spool = Spool(tmp_path / "spool")
    spool.initialise()
    cells = [(rs.params, rs.seed, rs.index) for rs in run_specs]
    (task,) = shard_cells(cells, spec.name, task_size=3)
    spool.publish_task(task)
    registry = ScenarioRegistry()
    registry.register(spec)
    shard = execute_task(spool.claim_next(), spool, registry)
    assert [record.key for _, record in shard] == [run_spec.key for run_spec in run_specs]


@pytest.mark.parametrize("backend", ["inline", "spool"])
def test_a_warm_replay_encodes_params_once_per_sweep_point(tmp_path, monkeypatch, backend):
    cache = CacheIndex(tmp_path / "cache")
    seeds = list(range(200))
    ParallelCampaignRunner(store=ResultStore(tmp_path / "cold.jsonl"), cache=cache).run(
        "demo/random_walk", seeds=seeds
    )
    calls = []
    encode = spec_module.encode_params

    def counting_encode(params):
        calls.append(params)
        return encode(params)

    monkeypatch.setattr(spec_module, "encode_params", counting_encode)
    replay_backend = SpoolBackend(tmp_path / "spool", workers=0) if backend == "spool" else None
    result = ParallelCampaignRunner(
        store=ResultStore(tmp_path / "warm.jsonl"), cache=cache, backend=replay_backend
    ).run("demo/random_walk", seeds=seeds)
    assert (result.cached, result.executed) == (200, 0)
    assert len(calls) == 1
    assert (tmp_path / "cold.jsonl").read_bytes() == (tmp_path / "warm.jsonl").read_bytes()


def test_a_record_labelled_with_the_specs_name_is_keyed_by_it():
    spec = _spec()
    (cell,) = _spec("other").runs(seeds=[3])
    record = execute_run(spec, cell)
    assert record.scenario == spec.name
    assert record.key == canonical_key(spec.name, record.params, 3) != cell.key
