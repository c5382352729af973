"""The benchmark's own checks.  Run from the repository root::

    python3 -m pytest perfbench -q

Each workload runs twice with the same seed and a one-second window in
traced mode; the exact-count anchors must repeat, the result must verify,
and the layer self times must account for the traced wall time.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]

#: Counts that must be identical in every run of the same code and seed.
ANCHORS = (
    "sim.events",
    "network.medium.transmits",
    "core.cycles",
    "vectorized.fast_cells",
    "distributed.tasks",
)


def run(workload: str, trace: int, seed: int = 7, seconds: float = 1.0, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
        env=env,
    )


def result_of(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=WORKLOADS)
def traced_pair(request):
    return request.param, [result_of(run(request.param, trace=1)) for _ in range(2)]


def test_traced_runs_verify_and_repeat_their_anchors(traced_pair):
    workload, (first, second) = traced_pair
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert set(result["metrics"]) == {metric["name"] for metric in BENCHMARK["per_layer"]}
        for metric in BENCHMARK["per_layer"]:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    for anchor in ANCHORS:
        assert first["metrics"][anchor]["value"] == second["metrics"][anchor]["value"], anchor


def test_layer_self_times_account_for_the_traced_wall(traced_pair):
    workload, results = traced_pair
    for result in results:
        metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
        layers: dict = {}
        for name, value in metrics.items():
            if name.endswith(".self_s"):
                group = name.split(".")[0]
                layers[group] = layers.get(group, 0.0) + value
        accounted = sum(layers.values()) + metrics["unattributed_s"]
        assert accounted == pytest.approx(metrics["trace.wall_s"], rel=1e-6)
        if workload == "spectrum_cells":
            assert max(layers, key=layers.get) == "network"
        if workload == "kernel_cells":
            assert layers["network"] / metrics["trace.wall_s"] < 0.01


def test_timed_run_reports_every_end_to_end_metric():
    result = result_of(run("vector_batch", trace=0))
    assert result["correct"]
    names = {metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_speed_probe_reads_on_every_process_and_stops_its_helpers():
    sys.path.insert(0, str(ROOT / "perfbench"))
    from speed import PROBES_PER_READING, SpeedProbe

    with SpeedProbe(processes=2) as probe:
        assert probe.read() > 0
        assert len(probe.readings[-1]) == 2 * PROBES_PER_READING
        helpers = list(probe._helpers)
    assert [helper.returncode for helper in helpers] == [0]


@pytest.mark.parametrize("variable", ["REPRO_TELEMETRY", "REPRO_TRACE_DIR", "REPRO_TRACE_ID", "REPRO_FAULT_PLAN"])
def test_refuses_to_run_with_program_instrumentation_on(variable):
    completed = run("kernel_cells", trace=0, env={**os.environ, variable: "1"})
    assert completed.returncode == 2
    assert completed.stdout == ""
