"""How a run's timing samples become its end-to-end metrics.

Every timed sample is scaled to the reference host by the speed-probe time
around it (``speed.py``), so that a run measures the program and not how
busy the shared host was.

Every workload repeats a fixed set of campaigns (``cycles`` in
``workloads.py``), and each time is the median of the run's samples of the
same work.  A metric over several campaigns or cells adds up, or averages,
the medians of each.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

from speed import REFERENCE_PROBE_S


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def scaled(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, on the reference host."""
    return seconds * REFERENCE_PROBE_S / probe_s


def by_campaign(results: Sequence) -> Dict[str, List]:
    grouped: Dict[str, List] = {}
    for result in results:
        grouped.setdefault(result.key, []).append(result)
    return grouped


def campaign_s(results: Sequence) -> float:
    """One cold pass over every campaign of the set."""
    return sum(
        median([scaled(r.cold_s, r.probe_s) for r in group])
        for group in by_campaign(results).values()
    )


def replay_s(results: Sequence) -> float:
    """One warm-cache replay of every campaign of the set."""
    return sum(
        median([scaled(s, r.probe_s) for r in group for s in r.replay_s])
        for group in by_campaign(results).values()
    )


def cells_per_s(results: Sequence) -> float:
    """Cold cells per second of :func:`campaign_s`."""
    cells = sum(group[0].cells for group in by_campaign(results).values())
    elapsed = campaign_s(results)
    return cells / elapsed if elapsed > 0 else 0.0


def cell_ms(results: Sequence) -> float:
    """One cell (on the spool, one task per cell), averaged over the set's cells."""
    samples: Dict[tuple, List[float]] = {}
    for result in results:
        for cell, seconds in result.cell_s.items():
            samples.setdefault((result.key, cell), []).append(scaled(seconds, result.probe_s))
    if not samples:
        return 0.0
    return 1000.0 * statistics.fmean(median(values) for values in samples.values())
