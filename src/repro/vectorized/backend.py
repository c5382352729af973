"""``VectorBatchBackend`` — lockstep multi-seed execution on the backend seam.

The batch planner groups a campaign's pending cells by their fully-coerced
parameter point (the scenario is fixed per campaign, so a group is
homogeneous by construction), asks the program registry whether the group
qualifies for the fast path, and hands qualifying groups' seeds to the
program in one call.

Correctness never depends on the fast path:

* ineligible groups (no program, unsupported params, groups too small to
  batch) and groups whose program raises fall back whole to the scalar
  kernel;
* every batch pays for one scalar **probe**: its first cell is executed on
  the scalar kernel and the probe's serialized record bytes must equal the
  vector record's bytes — on mismatch the whole group re-runs scalar (and
  the mismatch is counted and logged);
* a seed missing from a verified batch's output, or whose metric names
  differ from the probe's, finishes on the scalar kernel.

Because fast-path records are built with the same ``extract_metrics`` and
serialiser as scalar records, a `--backend vector` store is byte-identical
to an inline store, and the backend composes with resume, the shared cache,
retries and progress tracking unchanged.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.experiments.runner import (
    ExecutionBackend,
    InProcessBackend,
    RunRecord,
    execute_run_with_retry,
)
from repro.experiments.spec import jsonable
from repro.observability.progress import ProgressTracker
from repro.observability.trace import TRACER
from repro.resilience.retry import CircuitBreaker, RetryPolicy
from repro.vectorized.programs import program_for

logger = logging.getLogger(__name__)

__all__ = ["VectorBatchBackend", "VectorStats"]


@dataclass
class VectorStats:
    """Occupancy accounting for one campaign's worth of vector batches.

    ``fast_cells`` ran entirely on the lockstep fast path; ``probe_cells``
    ran on the scalar kernel to cross-check their batch (one per batch);
    ``fallback_cells`` ran scalar for any other reason (ineligible params,
    no program, undersized group, program error, probe mismatch, or a seed
    missing from the program's output or not carrying the probe's metric
    names).
    """

    batches: int = 0
    groups: int = 0
    ineligible_groups: int = 0
    fast_cells: int = 0
    probe_cells: int = 0
    fallback_cells: int = 0
    probe_mismatches: int = 0
    program_errors: int = 0

    @property
    def total_cells(self) -> int:
        return self.fast_cells + self.probe_cells + self.fallback_cells

    @property
    def occupancy(self) -> float:
        """Fraction of backend-executed cells that stayed on the fast path."""
        total = self.total_cells
        return (self.fast_cells / total) if total else 0.0

    def summary(self) -> str:
        """One-line human summary, printed by ``run`` and grepped by CI."""
        return (
            f"vector: {self.batches} batch(es), "
            f"{self.fast_cells}/{self.total_cells} cells on the fast path "
            f"(occupancy {self.occupancy:.0%}), "
            f"{self.probe_cells} probe, {self.fallback_cells} fallback"
        )


class VectorBatchBackend(ExecutionBackend):
    """Executes homogeneous seed batches in lockstep, scalar otherwise."""

    name = "vector"

    def __init__(self, retry_policy: Optional[RetryPolicy] = None):
        self.retry_policy = retry_policy
        #: Per-campaign occupancy accounting; reset on every execute().
        self.stats = VectorStats()

    # ----------------------------------------------------------------- backend
    def execute(
        self,
        spec: Any,
        pending: Sequence[Any],
        records: List[Optional[RunRecord]],
        progress: Optional[ProgressTracker] = None,
    ) -> None:
        self.stats = VectorStats()
        breaker = CircuitBreaker()
        scalar_indices: set = set()
        for cells in self._plan(pending):
            self.stats.groups += 1
            program = program_for(spec, cells[0].params)
            if program is None:
                self.stats.ineligible_groups += 1
                self.stats.fallback_cells += len(cells)
                scalar_indices.update(cell.index for cell in cells)
                continue
            scalar_indices.update(
                self._run_group(spec, program, cells, records, progress, breaker)
            )
        # Scalar queue: original pending order, so retry/fault-plan counters
        # fire in a deterministic sequence.
        scalar = [run_spec for run_spec in pending if run_spec.index in scalar_indices]
        InProcessBackend(retry_policy=self.retry_policy).execute(
            spec, scalar, records, progress=progress
        )
        for run_spec in scalar:
            records[run_spec.index].executed_by = "scalar"

    # ------------------------------------------------------------------- steps
    def _plan(self, pending: Sequence[Any]) -> List[List[Any]]:
        """Group pending cells by canonical parameter point, in first-seen order."""
        groups: Dict[str, List[Any]] = {}
        order: List[str] = []
        for run_spec in pending:
            key = json.dumps(jsonable(run_spec.params), sort_keys=True)
            bucket = groups.get(key)
            if bucket is None:
                groups[key] = [run_spec]
                order.append(key)
            else:
                bucket.append(run_spec)
        return [groups[key] for key in order]

    def _run_group(
        self,
        spec: Any,
        program: Any,
        cells: List[Any],
        records: List[Optional[RunRecord]],
        progress: Optional[ProgressTracker],
        breaker: CircuitBreaker,
    ) -> List[int]:
        """Run one eligible group; returns indices that must finish scalar.

        The whole group runs inside one ``batch`` trace span; the scalar
        probe is an instant child event, and its cell span nests under it.
        """
        with TRACER.span(
            "batch", cat="batch", scenario=spec.name, size=len(cells)
        ) as batch_span:
            if len(cells) < 2:
                # A lockstep batch needs at least one fast cell beyond the
                # scalar probe to be worth planning; run undersized groups
                # scalar.
                self.stats.fallback_cells += len(cells)
                batch_span.set(outcome="undersized")
                return [cell.index for cell in cells]

            try:
                outputs = program.run(
                    spec, [cell.seed for cell in cells], dict(cells[0].params)
                )
            except Exception as exc:  # noqa: BLE001 — fast path must never kill a campaign
                logger.warning(
                    "vector program for %r failed (%s: %s); group of %d falls back "
                    "to the scalar kernel",
                    spec.name,
                    type(exc).__name__,
                    exc,
                    len(cells),
                )
                self.stats.program_errors += 1
                self.stats.fallback_cells += len(cells)
                batch_span.set(outcome="program-error")
                return [cell.index for cell in cells]

            # Scalar probe: the batch's first cell runs on the scalar kernel
            # and must serialise to the exact bytes the vector path built.
            probe_spec = cells[0]
            TRACER.instant("probe", seed=probe_spec.seed)
            probe_record = execute_run_with_retry(
                spec,
                probe_spec,
                policy=self.retry_policy,
                breaker=breaker,
                keep_result=True,
            )
            probe_record.executed_by = "scalar"
            records[probe_spec.index] = probe_record
            self.stats.probe_cells += 1
            if progress is not None:
                progress.record_record(ok=probe_record.ok)
            vector_probe = self._vector_record(
                spec, probe_spec, outputs.get(probe_spec.seed)
            )
            if vector_probe is None or not self._identical(probe_record, vector_probe):
                self.stats.probe_mismatches += 1
                self.stats.fallback_cells += len(cells) - 1
                logger.warning(
                    "vector probe mismatch for %r seed %s; group of %d falls back "
                    "to the scalar kernel",
                    spec.name,
                    probe_spec.seed,
                    len(cells),
                )
                batch_span.set(outcome="probe-mismatch")
                return [cell.index for cell in cells[1:]]

            # Verified: the batch's records are trusted if they carry the
            # probe's metric names.
            self.stats.batches += 1
            leftover: List[int] = []
            for run_spec in cells[1:]:
                record = self._vector_record(spec, run_spec, outputs.get(run_spec.seed))
                if record is None or record.metrics.keys() != probe_record.metrics.keys():
                    # No output for this seed, or not the probe's shape: run
                    # it scalar rather than trust a hole.
                    self.stats.fallback_cells += 1
                    leftover.append(run_spec.index)
                    continue
                record.executed_by = "vector"
                records[run_spec.index] = record
                self.stats.fast_cells += 1
                if progress is not None:
                    progress.record_record(ok=True)
            batch_span.set(outcome="verified", fast_cells=self.stats.fast_cells)
            return leftover

    def _vector_record(
        self, spec: Any, run_spec: Any, output: Optional[Dict[str, Any]]
    ) -> Optional[RunRecord]:
        if output is None:
            return None
        try:
            metrics = spec.extract_metrics(output)
        except Exception:  # noqa: BLE001 — malformed program output → scalar fallback
            return None
        return RunRecord(
            scenario=spec.name,
            params=dict(run_spec.params),
            seed=run_spec.seed,
            status="ok",
            metrics=metrics,
        )

    @staticmethod
    def _identical(a: RunRecord, b: RunRecord) -> bool:
        """Byte-level equality of the records' serialised forms.

        Compares the JSON text (not the dicts) so sign/precision artefacts
        like ``-0.0`` vs ``0.0`` — equal as floats, different as bytes —
        fail the probe.
        """
        return json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
            b.to_json_dict(), sort_keys=True
        )
