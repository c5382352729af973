"""Lockstep batch bookkeeping for the vectorized multi-seed engine.

A :class:`LockstepBatch` is the unit of work handed to a
:class:`~repro.vectorized.programs.VectorProgram`: one scenario, one fully
coerced parameter point, and the seed axis to advance in lockstep.  Programs
that detect a structural divergence for a particular seed (an event the
struct-of-arrays schedule cannot represent) call :meth:`LockstepBatch.evict`
and simply omit that seed from their output — the backend finishes evicted
seeds on the scalar kernel, so correctness never depends on the fast path.

:class:`VectorStats` aggregates per-campaign occupancy accounting; it is the
data behind the ``run`` summary line and the ``vector-smoke`` CI grep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence

__all__ = ["LockstepBatch", "VectorStats"]


class LockstepBatch:
    """One homogeneous (scenario, params) group of seeds run in lockstep."""

    def __init__(self, scenario: str, params: Mapping[str, Any], seeds: Sequence[int]):
        self.scenario = scenario
        self.params: Dict[str, Any] = dict(params)
        self.seeds: List[int] = list(seeds)
        self._evicted: Dict[int, str] = {}

    def evict(self, seed: int, reason: str = "") -> None:
        """Mark *seed* as structurally diverged; it finishes on the scalar kernel."""
        if seed not in self.seeds:
            raise KeyError(f"seed {seed} is not part of this batch")
        self._evicted.setdefault(seed, reason)

    @property
    def evicted(self) -> Dict[int, str]:
        """Seeds evicted so far, mapped to the eviction reason."""
        return dict(self._evicted)

    def active_seeds(self) -> List[int]:
        """Seeds still on the fast path, in batch order."""
        return [seed for seed in self.seeds if seed not in self._evicted]

    def __len__(self) -> int:
        return len(self.seeds)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LockstepBatch(scenario={self.scenario!r}, seeds={len(self.seeds)}, "
            f"evicted={len(self._evicted)})"
        )


@dataclass
class VectorStats:
    """Occupancy accounting for one campaign's worth of vector batches.

    ``fast_cells`` ran entirely on the lockstep fast path; ``probe_cells``
    ran on the scalar kernel to cross-check the batch (one per verified
    batch); ``evicted_cells`` diverged (pre-flight via the ``vector.evict``
    fault point or mid-flight via :meth:`LockstepBatch.evict`) and finished
    scalar; ``fallback_cells`` never qualified (ineligible params, no
    program, undersized group, program error, or probe mismatch).
    """

    batches: int = 0
    groups: int = 0
    ineligible_groups: int = 0
    fast_cells: int = 0
    probe_cells: int = 0
    evicted_cells: int = 0
    fallback_cells: int = 0
    probe_mismatches: int = 0
    program_errors: int = 0
    eviction_reasons: Dict[str, int] = field(default_factory=dict)

    @property
    def total_cells(self) -> int:
        return self.fast_cells + self.probe_cells + self.evicted_cells + self.fallback_cells

    @property
    def occupancy(self) -> float:
        """Fraction of backend-executed cells that stayed on the fast path."""
        total = self.total_cells
        return (self.fast_cells / total) if total else 0.0

    def record_eviction(self, reason: str) -> None:
        self.evicted_cells += 1
        label = reason or "unspecified"
        self.eviction_reasons[label] = self.eviction_reasons.get(label, 0) + 1

    def summary(self) -> str:
        """One-line human summary, printed by ``run`` and grepped by CI."""
        return (
            f"vector: {self.batches} batch(es), "
            f"{self.fast_cells}/{self.total_cells} cells on the fast path "
            f"(occupancy {self.occupancy:.0%}), "
            f"{self.probe_cells} probe, {self.evicted_cells} evicted, "
            f"{self.fallback_cells} fallback"
        )
