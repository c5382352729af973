"""The repository benchmark: one workload, measured, verified, reported.

Usage, from the repository root::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see ``workloads.py`` for why each exists): ``spectrum_cells`` and
``kernel_cells`` run simulator cells in-process, one after the other (a
closed loop with one client); ``spool_campaign`` runs campaigns through a
2-worker spool; ``vector_batch`` runs 64-seed campaigns on the lockstep
vector backend.  Every workload repeats *cycles* over a fixed set of
campaigns — each a cold pass and its warm-cache replays — until
``--seconds`` have passed, checking every store line of every pass.

``--trace 0`` reports the end-to-end metrics, with the program untouched.
Every time is scaled to the reference host by a speed probe read around it
(``speed.py``) and is the median of the run's samples of the same work
(``measures.py``):

``cells_per_s``   cells of the set per second of ``campaign_s``
``cell_ms.p50``   wall time the executing backend charged one cell, averaged
                  over the set's cells: ``RunRecord.duration`` inline, a
                  spool task's worker-side elapsed time over its cells, a
                  vector campaign over its cells
``setup_s``       seven fresh interpreters made ready to run the workload's
                  first cell (imports, registry, scenario source
                  fingerprints); on the spool, campaign start to the first
                  ``task_claimed`` (worker spawn and import) of every pass
``campaign_s``    one cold pass over every campaign of the set: publish to
                  store written and, on the spool, workers joined
``replay_s``      one replay of every campaign of the set against its warm
                  cache

Failures — a raised campaign, a record that differs from its reference, a
missing cell — are the result's ``failed`` over ``attempted``.

``--trace 1`` alternates untraced and traced cycles and reports per-layer
metrics from the traced ones (``layers.py``): counts from the first traced
cycle, which repeat exactly for a given seed, and times summed over all
traced passes, whose self times plus ``unattributed_s`` add up to
``trace.wall_s``.  ``trace.overhead`` is traced over untraced cells/s.

The last line of standard output is the result as one JSON object.  The
program's own telemetry, tracing and fault injection must be off: the run
refuses to start when any of their environment variables is set.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence

import measures
from layers import LayerTracer
from measures import median
from per_layer import per_layer_metrics
from speed import SpeedProbe

#: Each of these changes the program's behaviour at import time.
GUARDED_ENV = ("REPRO_TELEMETRY", "REPRO_TRACE_DIR", "REPRO_TRACE_ID", "REPRO_FAULT_PLAN")

SETUP_PROBES = 7

#: A spool iteration is flagged when its workers took this long to join.
SLOW_JOIN_S = 1.0

END_TO_END = {
    "cells_per_s": "cells/s",
    "cell_ms.p50": "ms",
    "setup_s": "s",
    "campaign_s": "s",
    "replay_s": "s",
}

_PROBE = """
import sys
sys.path.insert(0, "src")
from repro.experiments.registry import load_builtin_scenarios
import repro.distributed.cache, repro.experiments.runner, repro.vectorized
registry = load_builtin_scenarios()
for name in sys.argv[1:]:
    registry.get(name).source_fingerprint()
"""


def provenance(root: Path) -> Dict[str, Any]:
    import numpy

    from repro.experiments.perf import calibrate

    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes() + b"\0")
    revision = None
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text("utf-8").strip()
        if ref.startswith("ref: "):
            ref_path = root / ".git" / ref[5:]
            revision = ref_path.read_text("utf-8").strip() if ref_path.is_file() else ref[5:]
        else:
            revision = ref
    return {
        "git_revision": revision,
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "calibrate_s": calibrate(),
    }


def probe_setup(root: Path, scenarios: Sequence[str], probe: SpeedProbe) -> List[float]:
    """Scaled seconds of fresh interpreters readying the workload's first cell."""
    samples = []
    probe.read()
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", _PROBE, *scenarios],
            cwd=root,
            check=True,
            stdout=subprocess.DEVNULL,
        )
        elapsed = time.perf_counter() - started
        samples.append(measures.scaled(elapsed, probe.read()))
    return samples


def report_pass(index: int, result) -> None:
    """Print a pass's errors and, on the spool, its health."""
    health = result.spool
    if health is not None:
        flagged = health["idle_workers"] or health["reclaims"] or health["join_s"] > SLOW_JOIN_S
        print(
            f"pass {index}: campaign_s={result.cold_s:.3f} join_s={health['join_s']:.3f} "
            f"idle_workers={health['idle_workers']} reclaims={health['reclaims']}"
            + (" FLAGGED" if flagged else "")
        )
    for error in result.errors:
        print(f"pass {index}: {error}")


def end_to_end(workload, results, setup_samples) -> Dict[str, float]:
    if workload.backend == "spool":
        setup_samples = [
            measures.scaled(r.spool["spawn_to_first_claim_s"], r.probe_s) for r in results
        ]
    return {
        "cells_per_s": measures.cells_per_s(results),
        "cell_ms.p50": measures.cell_ms(results),
        "setup_s": median(setup_samples),
        "campaign_s": measures.campaign_s(results),
        "replay_s": measures.replay_s(results),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    guarded = [name for name in GUARDED_ENV if os.environ.get(name)]
    if guarded:
        print(f"refusing to run: {', '.join(guarded)} set", file=sys.stderr)
        return 2
    root = Path.cwd()
    if not (root / "src" / "repro").is_dir():
        print(f"no src/repro under {root}: run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from workloads import SPOOL_WORKERS, WORKLOADS, expectations, run_pass

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    work = root / ".bench_work" / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        print("provenance " + json.dumps(provenance(root), sort_keys=True), flush=True)
        expected = expectations(workload)
        tracer = LayerTracer() if args.trace else None
        results, traced = [], []
        # The probe keeps as many processes busy as the workload does.
        processes = SPOOL_WORKERS if workload.backend == "spool" else 1
        with SpeedProbe(processes) as probe:
            setup_samples = (
                probe_setup(root, sorted({kind[0] for kind in workload.kinds}), probe)
                if workload.backend != "spool"
                else []
            )
            index = 0
            probe.read()
            started = time.perf_counter()
            for cycle, campaigns in enumerate(workload.cycles(args.seed)):
                in_trace = tracer is not None and cycle % 2 == 1
                for campaign in campaigns:
                    result = run_pass(
                        workload,
                        campaign,
                        expected[campaign.key],
                        work / f"pass-{index}",
                        tracer if in_trace else None,
                    )
                    result.probe_s = probe.read()
                    (traced if in_trace else results).append(result)
                    report_pass(index, result)
                    index += 1
                if time.perf_counter() - started >= args.seconds and (tracer is None or traced):
                    break

        every = results + traced
        attempted = sum(r.checked for r in every)
        failed = sum(r.failed for r in every)
        if tracer is None:
            metrics = end_to_end(workload, results, setup_samples)
            units, accounted = END_TO_END, True
        else:
            metrics, units, accounted = per_layer_metrics(
                tracer, traced, results, cycle_passes=len(expected)
            )
        correct = failed == 0 and attempted > 0 and accounted
        print(
            json.dumps(
                {
                    "correct": correct,
                    "attempted": attempted,
                    "failed": failed,
                    "metrics": {
                        name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()
                    },
                }
            )
        )
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    raise SystemExit(main())
