"""Tests for the named random streams and the trace recorder."""

import numpy as np
import pytest

from repro.sim.rng import ChunkedIntegers, RandomStreams
from repro.sim.trace import TraceRecorder


class TestRandomStreams:
    def test_same_seed_same_stream_reproducible(self):
        a = RandomStreams(42).stream("medium").random(5)
        b = RandomStreams(42).stream("medium").random(5)
        assert list(a) == list(b)

    def test_different_names_are_independent(self):
        streams = RandomStreams(42)
        a = streams.stream("medium").random(5)
        b = streams.stream("sensor").random(5)
        assert list(a) != list(b)

    def test_different_seeds_differ(self):
        a = RandomStreams(1).stream("x").random(5)
        b = RandomStreams(2).stream("x").random(5)
        assert list(a) != list(b)

    def test_stream_is_cached(self):
        streams = RandomStreams(0)
        assert streams.stream("a") is streams.stream("a")

    def test_spawn_children_are_deterministic_and_distinct(self):
        parent = RandomStreams(7)
        child_a = parent.spawn("veh1")
        child_b = parent.spawn("veh2")
        again = RandomStreams(7).spawn("veh1")
        assert child_a.master_seed == again.master_seed
        assert child_a.master_seed != child_b.master_seed


class TestChunkedIntegers:
    @pytest.mark.parametrize("n", [1, 2, 3, 32, 33, 1000, 2**31 + 5])
    def test_below_matches_scalar_integers_across_refills(self, n):
        chunked, scalar = np.random.default_rng(7), np.random.default_rng(7)
        draws = ChunkedIntegers(chunked)
        for _ in range(300):  # at least four refills unless n == 1
            assert 10 + draws.below(n) == int(scalar.integers(10, 10 + n))
        if n == 1:  # a one-value range reads no word, as in numpy
            assert chunked.random() == scalar.random()

    def test_generator_stays_in_step_after_a_refill(self):
        chunked, scalar = np.random.default_rng(3), np.random.default_rng(3)
        draws = ChunkedIntegers(chunked)
        for _ in range(64):  # one word each: exactly one refill read
            assert draws.below(64) == int(scalar.integers(0, 64))
        assert chunked.random(3).tolist() == scalar.random(3).tolist()
        assert chunked.integers(0, 1000, 4).tolist() == scalar.integers(0, 1000, 4).tolist()

    @pytest.mark.parametrize("n", [0, -1, 2**32 + 1])
    def test_out_of_range_bound_is_rejected(self, n):
        with pytest.raises(ValueError):
            ChunkedIntegers(np.random.default_rng(0)).below(n)


class TestTraceRecorder:
    def test_record_and_query_by_kind(self):
        trace = TraceRecorder()
        trace.record(1.0, "collision", "world", gap=-0.5)
        trace.record(2.0, "los_switch", "kernel", rank=1)
        assert len(trace) == 2
        assert trace.by_kind("collision")[0]["gap"] == -0.5
        assert trace.by_kind("los_switch")[0].get("rank") == 1

    def test_disabled_recorder_drops_records(self):
        trace = TraceRecorder(enabled=False)
        trace.record(1.0, "x", "y")
        assert len(trace) == 0

    def test_kind_histogram(self):
        trace = TraceRecorder()
        for _ in range(3):
            trace.record(0.0, "a", "s")
        trace.record(0.0, "b", "s")
        assert trace.kinds() == {"a": 3, "b": 1}

    def test_values_extracts_field(self):
        trace = TraceRecorder()
        for value in (1, 2, 3):
            trace.record(0.0, "sample", "s", v=value)
        trace.record(0.0, "sample", "s")  # record without the field is skipped
        assert trace.values("sample", "v") == [1, 2, 3]

    def test_last_returns_most_recent(self):
        trace = TraceRecorder()
        trace.record(1.0, "tick", "s", n=1)
        trace.record(2.0, "tick", "s", n=2)
        assert trace.last("tick")["n"] == 2
        assert trace.last("missing") is None

    def test_by_source_and_subscribe(self):
        trace = TraceRecorder()
        seen = []
        trace.subscribe(seen.append)
        trace.record(0.0, "k", "alpha")
        trace.record(0.0, "k", "beta")
        assert len(trace.by_source("alpha")) == 1
        assert len(seen) == 2

    def test_clear(self):
        trace = TraceRecorder()
        trace.record(0.0, "k", "s")
        trace.clear()
        assert len(trace) == 0
        assert trace.by_kind("k") == []
        assert trace.by_source("s") == []
        assert trace.kinds() == {}
        assert trace.last("k") is None

    def test_empty_recorder_is_truthy(self):
        # Callers default with `trace or TraceRecorder(...)`; an empty shared
        # recorder must not be silently replaced by that idiom.
        assert bool(TraceRecorder())
        assert bool(TraceRecorder(enabled=False))

    def test_records_property_materialises_views(self):
        trace = TraceRecorder()
        trace.record(1.0, "a", "s1", x=1)
        trace.record(2.0, "b", "s2", x=2)
        records = trace.records
        assert [(r.time, r.kind, r.source, r.fields) for r in records] == [
            (1.0, "a", "s1", {"x": 1}),
            (2.0, "b", "s2", {"x": 2}),
        ]
        assert [r.kind for r in trace] == ["a", "b"]

    def test_query_api_matches_reference_implementation(self):
        trace = TraceRecorder()
        rows = [
            (0.5, "tick", "alpha", {"n": 1}),
            (1.0, "tock", "beta", {"n": 2}),
            (1.5, "tick", "beta", {"n": 3}),
            (2.0, "tick", "alpha", {}),
        ]
        for time, kind, source, fields in rows:
            trace.record(time, kind, source, **fields)
        assert [r.fields for r in trace.by_kind("tick")] == [{"n": 1}, {"n": 3}, {}]
        assert [r.kind for r in trace.by_source("beta")] == ["tock", "tick"]
        assert trace.kinds() == {"tick": 3, "tock": 1}
        assert trace.values("tick", "n") == [1, 3]
        assert trace.last("tick").time == 2.0
        assert len(trace) == 4

    def test_disabled_recorder_stays_empty_and_quiet(self):
        trace = TraceRecorder(enabled=False)
        seen = []
        trace.subscribe(seen.append)
        trace.record(1.0, "k", "s", v=1)
        assert len(trace) == 0 and seen == []
