"""Tests for ``repro.observability.trace``.

Covers the tracing subsystem's acceptance criteria: the tracer is a
shared-no-op while disabled and never fails a campaign while enabled,
spans nest exactly within a process and stitch across processes via
explicit parent ids, the k-way merge preserves per-process file order,
the Chrome export is Perfetto-loadable (ph/ts/dur/pid/tid with metadata
lanes), the summary ranks cells and flags stragglers, the critical path
partitions campaign wall-clock exactly into chain + idle gaps, and
``run --trace`` records one cell span per cell.  The end-to-end
multi-process half (two real spool workers appending concurrently) lives
in ``test_observability.py``.
"""

import json

import pytest

from repro.distributed import Spool
from repro.experiments import ParallelCampaignRunner
from repro.experiments.cli import main as cli_main
from repro.observability.progress import campaign_paths
from repro.observability.trace import (
    TRACER,
    Tracer,
    critical_path,
    disable_tracing,
    enable_tracing,
    export_chrome_trace,
    merge_trace_files,
    new_trace_id,
    read_trace_file,
    summarize_trace,
)


@pytest.fixture
def traced(tmp_path):
    """A globally-enabled tracer pointed at ``tmp_path``, cleaned up after."""
    trace_id = enable_tracing(tmp_path, source="test")
    yield tmp_path, trace_id
    disable_tracing()


# --------------------------------------------------------------------------
# Tracer core
# --------------------------------------------------------------------------


class TestTracer:
    def test_disabled_tracer_is_the_shared_null_span(self, tmp_path):
        tracer = Tracer()
        assert tracer.span("a") is tracer.span("b")
        tracer.instant("nothing")  # no-op, no crash
        assert list(tmp_path.iterdir()) == []

    def test_null_span_tolerates_set_and_reports_no_id(self):
        span = Tracer().span("ignored")
        with span as live:
            live.set(anything="goes")
        assert span.span_id is None

    def test_spans_nest_and_parent_to_the_enclosing_span(self, traced):
        directory, trace_id = traced
        with TRACER.span("outer", cat="campaign", parent=None) as outer:
            with TRACER.span("inner", cat="cell", seed=7) as inner:
                pass
        spans = read_trace_file(TRACER.path)
        by_name = {span["name"]: span for span in spans}
        assert by_name["inner"]["parent"] == outer.span_id
        assert by_name["outer"]["parent"] is None
        assert by_name["inner"]["span"] == inner.span_id
        assert all(span["trace"] == trace_id for span in spans)
        # Exact nesting: the child interval sits inside the parent's.
        assert by_name["outer"]["ts"] <= by_name["inner"]["ts"]
        assert (
            by_name["inner"]["ts"] + by_name["inner"]["dur"]
            <= by_name["outer"]["ts"] + by_name["outer"]["dur"] + 1e-9
        )

    def test_parent_scope_adopts_a_foreign_id(self, traced):
        with TRACER.parent_scope("dead-beef"):
            with TRACER.span("task", cat="task"):
                pass
        assert TRACER.current_parent is None
        (span,) = read_trace_file(TRACER.path)
        assert span["parent"] == "dead-beef"

    def test_instant_records_a_zero_duration_event(self, traced):
        with TRACER.span("batch", cat="batch") as batch:
            TRACER.instant("evict", seed=3, reason="midflight")
        spans = read_trace_file(TRACER.path)
        instant = next(span for span in spans if span["ph"] == "i")
        assert instant["parent"] == batch.span_id
        assert instant["args"] == {"seed": 3, "reason": "midflight"}
        assert "dur" not in instant

    def test_set_attaches_args_before_close(self, traced):
        with TRACER.span("cell", cat="cell") as span:
            span.set(attempts=2, status="failed")
        (line,) = read_trace_file(TRACER.path)
        assert line["args"] == {"attempts": 2, "status": "failed"}

    def test_span_ids_are_unique_and_seq_monotonic(self, traced):
        for _ in range(5):
            with TRACER.span("s"):
                pass
        spans = read_trace_file(TRACER.path)
        assert len({span["span"] for span in spans}) == 5
        seqs = [span["seq"] for span in spans]
        assert seqs == sorted(seqs)

    def test_unwritable_directory_drops_instead_of_raising(self, tmp_path):
        tracer = Tracer()
        tracer.configure(tmp_path / "gone")  # never created
        with tracer.span("lost"):
            pass
        assert tracer.dropped == 1

    def test_new_trace_ids_are_distinct(self):
        assert new_trace_id() != new_trace_id()
        assert len(new_trace_id()) == 16


# --------------------------------------------------------------------------
# Reading, merging, resolving
# --------------------------------------------------------------------------


class TestMerge:
    def _write(self, path, spans):
        with path.open("w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")

    def test_reader_skips_torn_and_malformed_lines(self, tmp_path):
        path = tmp_path / "trace-1.jsonl"
        path.write_text(
            json.dumps({"ph": "X", "name": "ok", "ts": 1.0, "pid": 1}) + "\n"
            + "{\"ph\": \"X\", \"name\": \"torn\n",
            encoding="utf-8",
        )
        spans = read_trace_file(path)
        assert [span["name"] for span in spans] == ["ok"]

    def test_merge_orders_by_ts_but_never_reorders_within_a_pid(self, tmp_path):
        # pid 1's second span has an *earlier* wall-clock ts than its first
        # (clock skew can't happen within one process in reality, but the
        # merge must still trust file order there).
        self._write(
            tmp_path / "trace-1.jsonl",
            [
                {"ph": "X", "name": "a1", "ts": 5.0, "pid": 1, "seq": 1},
                {"ph": "X", "name": "a2", "ts": 4.0, "pid": 1, "seq": 2},
            ],
        )
        self._write(
            tmp_path / "trace-2.jsonl",
            [
                {"ph": "X", "name": "b1", "ts": 1.0, "pid": 2, "seq": 1},
                {"ph": "X", "name": "b2", "ts": 9.0, "pid": 2, "seq": 2},
            ],
        )
        names = [span["name"] for span in merge_trace_files(tmp_path)]
        assert names == ["b1", "a1", "a2", "b2"]

    def test_campaign_paths_trace(self, tmp_path):
        assert campaign_paths(tmp_path).trace == tmp_path
        store = tmp_path / "results.jsonl"
        assert campaign_paths(store).trace == tmp_path / "results.jsonl.trace"


# --------------------------------------------------------------------------
# Chrome export
# --------------------------------------------------------------------------


class TestChromeExport:
    def test_export_shape_lanes_and_metadata(self):
        spans = [
            {"ph": "X", "name": "task", "cat": "task", "ts": 10.0, "dur": 2.0,
             "pid": 7, "tid": "worker-7", "span": "7-1", "parent": "5-1"},
            {"ph": "X", "name": "cell", "cat": "cell", "ts": 10.5, "dur": 1.0,
             "pid": 7, "tid": "worker-7", "span": "7-2", "parent": "7-1"},
            {"ph": "i", "name": "evict", "cat": "event", "ts": 10.6,
             "pid": 8, "tid": "worker-8", "span": "8-1", "parent": None},
        ]
        document = export_chrome_trace(spans)
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        completes = [event for event in events if event["ph"] == "X"]
        instants = [event for event in events if event["ph"] == "i"]
        metadata = [event for event in events if event["ph"] == "M"]
        assert len(completes) == 2 and len(instants) == 1
        # thread_name per (pid, label) lane + process_name per pid
        assert {m["name"] for m in metadata} == {"thread_name", "process_name"}
        for event in completes:
            assert isinstance(event["tid"], int)
            assert event["dur"] >= 0 and event["ts"] > 0
        # microseconds
        assert completes[0]["ts"] == pytest.approx(10.0 * 1e6)
        assert completes[0]["dur"] == pytest.approx(2.0 * 1e6)
        assert instants[0]["s"] == "t"
        # ids survive in args so Perfetto panels show the stitching
        assert completes[1]["args"]["parent"] == "7-1"

    def test_export_round_trips_through_json(self, traced):
        with TRACER.span("campaign", cat="campaign", parent=None):
            with TRACER.span("cell", cat="cell", seed=1):
                pass
        document = export_chrome_trace(merge_trace_files(traced[0]))
        again = json.loads(json.dumps(document))
        assert len(again["traceEvents"]) == len(document["traceEvents"])


# --------------------------------------------------------------------------
# Summary and critical path
# --------------------------------------------------------------------------


def _cell(seed, ts, dur, pid=1, worker="w"):
    return {
        "ph": "X", "name": "cell", "cat": "cell", "ts": ts, "dur": dur,
        "pid": pid, "tid": worker, "span": f"{pid}-{seed}",
        "args": {"scenario": "s", "seed": seed},
    }


class TestSummary:
    def test_phases_cells_and_stragglers(self):
        spans = [
            {"ph": "X", "name": "campaign", "cat": "campaign", "ts": 0.0,
             "dur": 10.0, "pid": 1, "span": "1-0"},
            _cell(1, 1.0, 1.0),
            _cell(2, 2.0, 1.0),
            _cell(3, 3.0, 5.0),  # 5x the median -> straggler
            {"ph": "i", "name": "evict", "cat": "event", "ts": 4.0, "pid": 1},
        ]
        summary = summarize_trace(spans, top=2, straggler_k=3.0)
        assert summary["spans"] == 4  # instants excluded
        assert summary["cells"] == 3
        assert summary["median_cell_s"] == 1.0
        assert [row["seed"] for row in summary["slowest_cells"]] == [3, 1]
        assert [row["seed"] for row in summary["stragglers"]] == [3]
        by_cat = {row["cat"]: row for row in summary["phases"]}
        assert by_cat["cell"]["count"] == 3
        assert by_cat["cell"]["total_s"] == pytest.approx(7.0)

    def test_empty_trace_summarizes_to_zeros(self):
        summary = summarize_trace([])
        assert summary["cells"] == 0 and summary["stragglers"] == []


class TestCriticalPath:
    def test_partition_is_exact_with_gaps_and_overlap(self):
        spans = [
            {"ph": "X", "name": "campaign", "cat": "campaign", "ts": 0.0,
             "dur": 10.0, "pid": 1, "span": "1-0"},
            _cell(1, 1.0, 3.0, worker="w1"),   # [1, 4]
            _cell(2, 2.0, 4.0, worker="w2"),   # [2, 6] overlaps, ends later
            _cell(3, 7.0, 2.0, worker="w1"),   # [7, 9] after a 1s gap
        ]
        path = critical_path(spans)
        assert path["wall_clock_s"] == pytest.approx(10.0)
        assert path["covered_s"] + path["idle_s"] == pytest.approx(10.0)
        # idle: [0,1] before work, [6,7] between, [9,10] after
        assert path["idle_s"] == pytest.approx(3.0)
        assert [entry["dur_s"] for entry in path["chain"]] == pytest.approx(
            [1.0, 4.0, 2.0]
        )
        # The overlapped prefix of cell 1 is truncated where cell 2 starts.
        chain_names = [entry["name"] for entry in path["chain"]]
        assert chain_names[0].endswith("seed=1")
        gap_lengths = [gap["dur_s"] for gap in path["gaps"]]
        assert gap_lengths == pytest.approx([1.0, 1.0, 1.0])

    def test_bounds_fall_back_to_work_spans_without_a_campaign_span(self):
        spans = [_cell(1, 2.0, 3.0)]
        path = critical_path(spans)
        assert path["wall_clock_s"] == pytest.approx(3.0)
        assert path["idle_s"] == pytest.approx(0.0)

    def test_empty_trace_yields_zero_wall_clock(self):
        assert critical_path([])["wall_clock_s"] == 0.0

    def test_live_runner_trace_partitions_exactly(self, traced):
        directory, _ = traced
        ParallelCampaignRunner().run("demo/random_walk", seeds=[1, 2, 3])
        path = critical_path(merge_trace_files(directory))
        assert path["wall_clock_s"] > 0.0
        assert path["covered_s"] + path["idle_s"] == pytest.approx(
            path["wall_clock_s"], rel=0.05
        )


# --------------------------------------------------------------------------
# Per-cell facts on spans
# --------------------------------------------------------------------------


class TestCellSpans:
    def test_runner_writes_one_cell_span_per_cell_when_traced(self, traced):
        directory, trace_id = traced
        ParallelCampaignRunner().run("demo/random_walk", seeds=[1, 2])
        cells = [s for s in merge_trace_files(directory) if s["name"] == "cell"]
        assert sorted(s["args"]["seed"] for s in cells) == [1, 2]
        assert all(s["args"]["scenario"] == "demo/random_walk" for s in cells)
        assert all(s["trace"] == trace_id for s in cells)

    def test_failed_cell_span_carries_attempts_and_status(self, traced):
        directory, _ = traced
        result = ParallelCampaignRunner().run(
            "demo/random_walk", params={"steps": -5}, seeds=[1]
        )
        assert result.failures == 1
        (cell,) = [s for s in merge_trace_files(directory) if s["name"] == "cell"]
        assert cell["args"]["attempts"] == 1
        assert cell["args"]["status"] == "failed"

    def test_untraced_runner_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        ParallelCampaignRunner().run("demo/random_walk", seeds=[1])
        assert list(tmp_path.iterdir()) == []


# --------------------------------------------------------------------------
# CLI: run --trace + the trace subcommand
# --------------------------------------------------------------------------


class TestTraceCli:
    def _run_traced(self, tmp_path, capsys):
        store = tmp_path / "results.jsonl"
        code = cli_main(
            ["run", "demo/random_walk", "--seeds", "3",
             "--store", str(store), "--trace"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trace" in out and "trace-*.jsonl" in out
        return store

    def test_run_trace_then_export_summary_critical_path(self, tmp_path, capsys):
        store = self._run_traced(tmp_path, capsys)
        trace_dir = tmp_path / "results.jsonl.trace"
        assert list(trace_dir.glob("trace-*.jsonl"))
        cells = [s for s in merge_trace_files(trace_dir) if s["name"] == "cell"]
        assert sorted(s["args"]["seed"] for s in cells) == [1, 2, 3]

        assert cli_main(["trace", "export", str(store)]) == 0
        capsys.readouterr()
        document = json.loads((trace_dir / "trace.json").read_text())
        assert any(
            event["ph"] == "X" and event["name"] == "cell"
            for event in document["traceEvents"]
        )

        assert cli_main(["trace", "summary", str(store)]) == 0
        out = capsys.readouterr().out
        assert "per-phase wall seconds" in out and "cell" in out

        assert cli_main(["trace", "critical-path", str(store)]) == 0
        out = capsys.readouterr().out
        assert "wall-clock" in out and "critical chain" in out

    def test_a_traced_run_leaves_the_process_tracer_off(self, tmp_path, capsys):
        # The tracer is process-global: a later in-process campaign (or any
        # simulator run) must not keep tracing into this run's directory.
        self._run_traced(tmp_path, capsys)
        assert not TRACER.enabled
        assert cli_main(["run", "demo/random_walk", "--seeds", "1",
                         "--trace-dir", str(tmp_path / "t")]) == 0
        assert not TRACER.enabled

    def test_summary_json_is_machine_readable(self, tmp_path, capsys):
        store = self._run_traced(tmp_path, capsys)
        assert cli_main(["trace", "summary", str(store), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["cells"] == 3

    def test_trace_on_missing_directory_fails_cleanly(self, tmp_path, capsys):
        assert cli_main(["trace", "summary", str(tmp_path / "nope")]) == 1
        assert "no trace files" in capsys.readouterr().err

    def test_trace_without_a_destination_is_an_error(self, capsys):
        assert cli_main(["run", "demo/random_walk", "--seeds", "1", "--trace"]) == 2
        assert "--trace needs somewhere" in capsys.readouterr().err

    def test_a_spool_campaign_keeps_the_coordinators_cache_spans(self, tmp_path, capsys):
        """The spool is purged of an earlier campaign's trace files when it
        is initialised, but not of the coordinator's own: its cache lookup
        ran before the publish, as the inline campaign's does."""
        def cache_spans(directory):
            names = [span["name"] for span in merge_trace_files(directory)]
            return names.count("cache.get"), names.count("cache.put")

        common = ["run", "demo/random_walk", "--seeds", "4", "--trace"]
        spool = tmp_path / "tr"
        spool.mkdir()
        (spool / "trace-1.jsonl").write_text(
            json.dumps({"ph": "X", "name": "cache.get", "trace": "old", "ts": 1.0}) + "\n"
        )
        code = cli_main(common + ["--backend", "spool", "--spool", str(spool),
                                  "--workers", "2", "--cache", str(tmp_path / "trc")])
        assert code == 0
        store = tmp_path / "tri.jsonl"
        code = cli_main(common + ["--store", str(store), "--cache", str(tmp_path / "tric")])
        assert code == 0
        assert cache_spans(spool) == cache_spans(f"{store}.trace") == (1, 1)

    def test_initialise_drops_stale_spans_from_a_recycled_pid_file(self, traced):
        directory, trace_id = traced
        own = TRACER.path
        own.write_text(
            json.dumps({"ph": "X", "name": "stale", "trace": "old", "ts": 1.0}) + "\n"
        )
        with TRACER.span("cache.get"):
            pass
        Spool(directory).initialise()
        assert [span["name"] for span in merge_trace_files(directory)] == ["cache.get"]
        assert read_trace_file(own)[0]["trace"] == trace_id

    def test_trace_dir_flag_implies_trace(self, tmp_path, capsys):
        trace_dir = tmp_path / "t"
        code = cli_main(
            ["run", "demo/random_walk", "--seeds", "1",
             "--trace-dir", str(trace_dir)]
        )
        assert code == 0
        assert list(trace_dir.glob("trace-*.jsonl"))
