#!/usr/bin/env python3
"""Lockstep vectorized campaign: same bytes as the scalar kernel.

Runs the E2 sensor-validity sweep (stuck-at fault, 3 ranging replicas) over
32 seeds twice — once on the serial in-process kernel, one seed per call of
the block sweep, once through :class:`~repro.vectorized.VectorBatchBackend`,
which runs the same block sweep over the whole seed batch — and asserts
the two JSONL stores are **byte-identical**.  The vector path is an optimisation, never a
different simulation: every batch pays one scalar probe cell whose
serialized record must match the vector record byte-for-byte.

Run with:  PYTHONPATH=src python examples/vector_campaign.py

The same campaign is available from the command line:

    PYTHONPATH=src python -m repro.experiments run sensor_validity \\
        -p fault_class=stuck_at --seeds 32 --backend vector --store e2.jsonl
"""

import tempfile
import time
from pathlib import Path

from repro.experiments import ParallelCampaignRunner, ResultStore
from repro.vectorized import VectorBatchBackend

SEEDS = list(range(32))
PARAMS = {"fault_class": "stuck_at"}


def run_campaign(store_path: Path, backend=None) -> float:
    start = time.perf_counter()
    ParallelCampaignRunner(store=ResultStore(store_path), backend=backend).run(
        "sensor_validity", params=PARAMS, seeds=SEEDS
    )
    return time.perf_counter() - start


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="vector-campaign-") as tmp:
        inline_path = Path(tmp) / "inline.jsonl"
        vector_path = Path(tmp) / "vector.jsonl"

        inline_s = run_campaign(inline_path)
        backend = VectorBatchBackend()
        vector_s = run_campaign(vector_path, backend=backend)

        inline_bytes = inline_path.read_bytes()
        vector_bytes = vector_path.read_bytes()
        assert vector_bytes == inline_bytes, (
            "vector store diverged from the inline kernel's bytes"
        )

        print(f"sensor_validity, {len(SEEDS)} seeds, fault_class=stuck_at")
        print(f"  inline kernel : {inline_s:.3f} s")
        print(f"  vector backend: {vector_s:.3f} s  ({inline_s / vector_s:.1f}x)")
        print(f"  {backend.stats.summary()}")
        print(f"  stores byte-identical: {len(vector_bytes)} bytes")


if __name__ == "__main__":
    main()
