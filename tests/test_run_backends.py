"""``run``'s backend table: which flags each backend accepts, who checks ranges.

Every backend-specific flag of ``run`` is declared once, in
:data:`repro.experiments.cli.BACKENDS`.  A flag the chosen backend does not
accept, and a value the backend's constructor rejects, both exit 2 with an
error naming the flag before any spool, store or trace directory exists.
``--jobs`` and ``--workers`` are two spellings of one flag, the spool's
worker count; errors name the spelling given.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.distributed import Spool
from repro.experiments.cli import BACKENDS, main as cli_main
from repro.observability.trace import (
    TRACER,
    merge_trace_files,
    summarize_trace,
)

SRC = Path(__file__).resolve().parent.parent / "src"

#: A value that sets each backend flag away from its default.
SET = {
    "--jobs": "2",
    "--spool": "spool",
    "--task-size": "2",
    "--cell-timeout": "5",
    "--lease-timeout": "5",
    "--timeout": "5",
    "--max-respawns": "1",
}

#: An out-of-range value for each range-checked flag.
OUT_OF_RANGE = {
    "--jobs": "-1",
    "--task-size": "0",
    "--cell-timeout": "0",
    "--lease-timeout": "0",
    "--timeout": "0",
    "--max-respawns": "-1",
}

ALL_FLAGS = sorted({flag for row in BACKENDS.values() for flag in row.flags})


def _argv(backend, flag, value):
    """A traced one-cell ``run`` on ``backend`` with ``flag`` set."""
    argv = ["run", "demo/random_walk", "--seeds", "1", "--backend", backend,
            "--store", "store.jsonl", "--trace"]
    if backend == "spool" and flag != "--spool":
        argv += ["--spool", "spool"]
    return argv + [flag, value]


@pytest.fixture(autouse=True)
def _in_tmp_path(tmp_path, monkeypatch):
    """Run in an empty directory, so a test can see that nothing was written."""
    monkeypatch.chdir(tmp_path)


def test_every_backend_flag_has_a_test_value():
    assert sorted(SET) == ALL_FLAGS
    assert set(OUT_OF_RANGE) <= set(ALL_FLAGS)


@pytest.mark.parametrize(
    "backend, flag",
    [
        (backend, flag)
        for backend, row in BACKENDS.items()
        for flag in ALL_FLAGS
        if flag not in row.flags
    ],
)
def test_a_flag_the_backend_does_not_accept_exits_2(tmp_path, capsys, backend, flag):
    assert cli_main(_argv(backend, flag, SET[flag])) == 2
    err = capsys.readouterr().err
    assert f"error: {flag} only applies to --backend" in err
    assert f"(not {backend})" in err
    assert list(tmp_path.iterdir()) == []
    assert not TRACER.enabled


@pytest.mark.parametrize(
    "backend, flag",
    [
        (backend, flag)
        for backend, row in BACKENDS.items()
        for flag in [*row.flags, "--retries"]
        if flag in OUT_OF_RANGE or flag == "--retries"
    ],
)
def test_an_out_of_range_value_exits_2_naming_the_flag(tmp_path, capsys, backend, flag):
    value = "0" if flag == "--retries" else OUT_OF_RANGE[flag]
    assert cli_main(_argv(backend, flag, value)) == 2
    assert f"error: {flag} must be " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert not TRACER.enabled


@pytest.mark.parametrize(
    "flags, summary",
    [
        ([], "backend=inline jobs=1"),
        (["--jobs", "1"], "backend=inline jobs=1"),
        (["--jobs", "2"], "backend=spool jobs=2"),
        (["--jobs", "2", "--task-size", "2"], "backend=spool jobs=2"),
        (["--workers", "3"], "backend=spool jobs=3"),
        (["--spool", "spool"], "backend=spool jobs=2"),
        (["--spool", "spool", "--workers", "1"], "backend=spool jobs=1"),
        (["--backend", "spool", "--jobs", "1"], "backend=spool jobs=1"),
    ],
)
def test_the_default_backend_follows_the_flags(tmp_path, capsys, flags, summary):
    assert cli_main(["run", "demo/random_walk", "--seeds", "3", "--store", "s.jsonl", *flags]) == 0
    assert summary in capsys.readouterr().out
    assert cli_main(["run", "demo/random_walk", "--seeds", "3", "--store", "serial.jsonl"]) == 0
    assert (tmp_path / "s.jsonl").read_bytes() == (tmp_path / "serial.jsonl").read_bytes()
    # Only a named spool outlives its campaign.
    assert (tmp_path / "spool").exists() == ("--spool" in flags)


@pytest.mark.parametrize("spelling", ["--jobs", "--workers"])
@pytest.mark.parametrize(
    "flags",
    [[], ["--spool", "spool"], ["--backend", "spool"], ["--backend", "inline"],
     ["--backend", "vector"]],
)
def test_a_negative_worker_count_exits_2_naming_the_spelling(
    tmp_path, capsys, spelling, flags
):
    assert cli_main(["run", "demo/random_walk", "--seeds", "3", *flags, spelling, "-3"]) == 2
    assert f"error: {spelling} " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("spelling", ["--jobs", "--workers"])
@pytest.mark.parametrize("flags", [[], ["--backend", "spool"]])
def test_no_workers_without_a_spool_exits_2(tmp_path, capsys, spelling, flags):
    """No worker could ever drain a temporary spool."""
    argv = ["run", "demo/random_walk", "--seeds", "3", "--store", "s.jsonl", *flags]
    assert cli_main(argv + [spelling, "0"]) == 2
    err = capsys.readouterr().err
    assert f"error: {spelling} must be >= 1 without a spool directory" in err
    assert list(tmp_path.iterdir()) == []


def test_a_spool_backend_needs_a_spool_or_a_worker_count(tmp_path, capsys):
    assert cli_main(["run", "demo/random_walk", "--seeds", "3", "--backend", "spool"]) == 2
    assert "--backend spool requires --spool DIR or --jobs N" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_a_temporary_spool_traces_beside_the_store(tmp_path, capsys):
    argv = ["run", "demo/random_walk", "--seeds", "4", "--jobs", "2", "--task-size", "1",
            "--store", "s.jsonl", "--trace"]
    assert cli_main(argv) == 0
    assert "recorded in s.jsonl.trace" in capsys.readouterr().out
    spans = merge_trace_files(tmp_path / "s.jsonl.trace")
    cells = [span for span in spans if span.get("cat") == "cell"]
    assert len(cells) == 4
    # Forked workers inherited the tracer: the cells ran outside the coordinator.
    assert os.getpid() not in {span["pid"] for span in cells}
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "s.jsonl", "s.jsonl.progress.json", "s.jsonl.trace"
    ]


def test_forked_workers_record_each_cells_phases(tmp_path, capsys):
    platoon = ["run", "platoon/karyon", "-p", "duration=5.0", "--seeds", "4"]
    assert cli_main([*platoon, "--jobs", "2", "--trace", "--store", "s.jsonl"]) == 0
    assert "platoon/karyon: cell phases of trace" in capsys.readouterr().out
    spans = merge_trace_files(tmp_path / "s.jsonl.trace")
    rows = summarize_trace(spans)["cell_phases"]
    assert {row["phase"]: row["count"] for row in rows} == {
        "scenario.build": 4, "scenario.sim": 4, "run.collect": 4
    }
    phase_pids = {span["pid"] for span in spans if span["cat"] == "phase"}
    assert phase_pids and os.getpid() not in phase_pids
    assert cli_main([*platoon, "--jobs", "1", "--store", "serial.jsonl"]) == 0
    assert (tmp_path / "s.jsonl").read_bytes() == (tmp_path / "serial.jsonl").read_bytes()


@pytest.mark.parametrize("flags", [[], ["--jobs", "2"], ["--backend", "vector"]])
def test_tracing_leaves_the_store_byte_identical(tmp_path, flags):
    campaign = ["run", "tdma_convergence", "--seeds", "6", *flags]
    assert cli_main([*campaign, "--trace", "--store", "traced.jsonl"]) == 0
    assert cli_main([*campaign, "--store", "untraced.jsonl"]) == 0
    assert merge_trace_files(tmp_path / "traced.jsonl.trace")
    assert (tmp_path / "traced.jsonl").read_bytes() == (tmp_path / "untraced.jsonl").read_bytes()


def test_a_spool_campaign_writes_its_completion_marker_once(tmp_path, capsys, monkeypatch):
    marks = []
    mark_complete = Spool.mark_complete
    monkeypatch.setattr(
        Spool, "mark_complete", lambda spool: (marks.append(1), mark_complete(spool))
    )
    campaign = ["run", "demo/random_walk", "--seeds", "4", "--spool", "spool", "--cache", "c"]
    assert cli_main([*campaign, "--store", "first.jsonl"]) == 0
    assert len(marks) == 1
    # A fully cached rerun dispatches nothing; only finalize closes it.
    assert cli_main([*campaign, "--store", "second.jsonl"]) == 0
    assert "(0 executed, 0 reused, 4 cached" in capsys.readouterr().out
    assert len(marks) == 2
    assert Spool(tmp_path / "spool").is_complete()


def _run_in_empty_tmpdir(tmp_path, *flags):
    """``run`` in a fresh interpreter whose ``TMPDIR`` is an empty directory."""
    scratch = tmp_path / "tmpdir"
    scratch.mkdir()
    env = {**os.environ, "TMPDIR": str(scratch), "PYTHONPATH": str(SRC)}
    argv = [sys.executable, "-m", "repro.experiments", "run", "demo/random_walk", *flags]
    completed = subprocess.run(
        argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    return completed, scratch


def test_a_temporary_spool_is_removed_after_a_campaign(tmp_path):
    completed, scratch = _run_in_empty_tmpdir(
        tmp_path, "--seeds", "4", "--jobs", "2", "--store", "s.jsonl"
    )
    assert completed.returncode == 0, completed.stderr
    assert "backend=spool jobs=2" in completed.stdout
    assert list(scratch.iterdir()) == []


def test_a_temporary_spool_is_removed_after_a_failed_campaign(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(
        '{"version": 1, "seed": 0, "rules": [{"point": "worker.cell", "kind": "sleep", '
        '"args": {"seconds": 1.5}, "times": null}]}'
    )
    completed, scratch = _run_in_empty_tmpdir(
        tmp_path, "--seeds", "4", "--jobs", "2", "--timeout", "0.3", "--faults", str(plan)
    )
    assert completed.returncode == 1
    assert "timed out" in completed.stderr
    assert "Traceback" not in completed.stderr
    assert completed.stderr.splitlines()[-1].startswith("error:")
    assert list(scratch.iterdir()) == []
