"""Machine-speed probe for perf measurements.

:func:`calibrate` times a fixed mix of the operations the simulator core
leans on.  ``perfbench/run.py`` records it in each run's provenance, so a
result can be read against the speed of the host that produced it.
"""

from __future__ import annotations

import heapq
import timeit
from typing import Dict

import numpy as np


def calibrate(repeats: int = 3) -> float:
    """Deterministic machine-speed probe (seconds).

    Mixes the operations the simulator core leans on — heap churn, dict and
    float work, a small numpy draw — so the probe tracks the workload mix
    rather than raw clock speed.
    """

    def work() -> float:
        heap: list = []
        push = heapq.heappush
        pop = heapq.heappop
        accumulator = 0.0
        table: Dict[int, float] = {}
        for i in range(30_000):
            push(heap, ((i * 2654435761) % 1000003, i))
            table[i & 1023] = accumulator
            accumulator += 1e-6 * i
        while heap:
            accumulator += pop(heap)[0]
        rng = np.random.default_rng(0)
        accumulator += float(rng.standard_normal(10_000).sum())
        return accumulator

    work()
    return min(timeit.repeat(work, number=1, repeat=max(1, repeats)))
