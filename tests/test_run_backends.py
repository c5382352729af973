"""``run``'s backend table: which flags each backend accepts, who checks ranges.

Every backend-specific flag of ``run`` is declared once, in
:data:`repro.experiments.cli.BACKENDS`.  A flag the chosen backend does not
accept, and a value the backend's constructor rejects, both exit 2 with an
error naming the flag before any spool, store or trace directory exists.
"""

import pytest

from repro.experiments import (
    InProcessBackend,
    MultiprocessingBackend,
    ParallelCampaignRunner,
    ResultStore,
)
from repro.experiments import runner as runner_module
from repro.experiments.cli import BACKENDS, main as cli_main
from repro.observability.trace import TRACER, disable_tracing

#: A value that sets each backend flag away from its default.
SET = {
    "--profile": None,
    "--jobs": "2",
    "--batch-size": "2",
    "--spool": "spool",
    "--workers": "1",
    "--task-size": "2",
    "--cell-timeout": "5",
    "--lease-timeout": "5",
    "--timeout": "5",
    "--max-respawns": "1",
}

#: An out-of-range value for each range-checked flag.
OUT_OF_RANGE = {
    "--batch-size": "0",
    "--workers": "-1",
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
    return argv + ([flag] if value is None else [flag, value])


@pytest.fixture(autouse=True)
def _in_tmp_path(tmp_path, monkeypatch):
    """Run in an empty directory, so a test can see that nothing was written."""
    monkeypatch.chdir(tmp_path)
    yield
    disable_tracing()


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
    "flags, backend",
    [
        ([], "inline"),
        (["--profile"], "inline"),
        (["--jobs", "2"], "process"),
        (["--jobs", "2", "--batch-size", "2"], "process"),
        (["--batch-size", "2"], "process"),
        (["--spool", "spool", "--workers", "1"], "spool"),
    ],
)
def test_the_default_backend_follows_the_flags(capsys, flags, backend):
    assert cli_main(["run", "demo/random_walk", "--seeds", "2", *flags]) == 0
    assert f"backend={backend} " in capsys.readouterr().out


def test_one_pending_cell_starts_no_pool(tmp_path, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a one-cell campaign must not start a pool")

    inline = tmp_path / "inline.jsonl"
    ParallelCampaignRunner(store=ResultStore(inline), backend=InProcessBackend()).run(
        "demo/random_walk", seeds=[1]
    )
    monkeypatch.setattr(runner_module.multiprocessing, "Pool", no_pool)
    pooled = tmp_path / "pooled.jsonl"
    result = ParallelCampaignRunner(
        store=ResultStore(pooled), backend=MultiprocessingBackend(jobs=2)
    ).run("demo/random_walk", seeds=[1])
    assert result.backend == "process" and result.failures == 0
    assert pooled.read_bytes() == inline.read_bytes()
