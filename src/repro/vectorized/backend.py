"""``VectorBatchBackend`` — lockstep multi-seed execution on the backend seam.

The batch planner groups a campaign's pending cells by their fully-coerced
parameter point (the scenario is fixed per campaign, so a group is
homogeneous by construction), asks the program registry whether the group
qualifies for the fast path, and runs qualifying groups as one
:class:`~repro.vectorized.engine.LockstepBatch`.

Correctness never depends on the fast path:

* ineligible groups (no program, unsupported params, groups too small to
  batch) fall back whole to the scalar kernel;
* seeds evicted pre-flight (``vector.evict`` fault point) or mid-flight
  (:meth:`LockstepBatch.evict`) finish on the scalar kernel;
* every verified batch pays for one scalar **probe**: its first surviving
  cell is executed on the scalar kernel and the probe's serialized record
  bytes must equal the vector record's bytes — on mismatch the whole group
  re-runs scalar (and the mismatch is counted and logged).

Because fast-path records are built with the same ``extract_metrics`` and
serialiser as scalar records, a `--backend vector` store is byte-identical
to an inline store, and the backend composes with resume, the shared cache,
retries and progress tracking unchanged.
"""

from __future__ import annotations

import json
import logging
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.experiments.runner import (
    ExecutionBackend,
    InProcessBackend,
    RunRecord,
    execute_run_with_retry,
)
from repro.experiments.spec import jsonable
from repro.observability.events import EventLog
from repro.observability.progress import ProgressTracker
from repro.observability.trace import TRACER
from repro.resilience.faults import InjectedFaultError, inject
from repro.resilience.retry import CircuitBreaker, RetryPolicy
from repro.vectorized.engine import LockstepBatch, VectorStats
from repro.vectorized.programs import program_for

logger = logging.getLogger(__name__)

__all__ = ["VectorBatchBackend"]


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
        events: Optional[EventLog] = None,
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
                self._run_group(spec, program, cells, records, progress, breaker, events)
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
        events: Optional[EventLog] = None,
    ) -> List[int]:
        """Run one eligible group; returns indices that must finish scalar.

        Observability: the whole group runs inside one ``batch`` trace span
        (the scalar probe's cell span nests under it), per-seed evictions
        and the probe are instant child events, and the shared event log —
        when attached — gets one ``vector_batch`` line per settled batch
        plus a ``vector_evict`` line per evicted seed.
        """

        def evict_event(seed: int, reason: str) -> None:
            TRACER.instant("evict", seed=seed, reason=reason)
            if events is not None:
                events.emit(
                    "vector_evict", scenario=spec.name, seed=seed, reason=reason
                )

        # Pre-flight evictions: the `vector.evict` fault point lets chaos
        # plans force structural divergence for chosen seeds.  Any planned
        # fault there — directive or raised — evicts the cell.
        batch_cells: List[Any] = []
        evicted_indices: List[int] = []
        with TRACER.span(
            "batch", cat="batch", scenario=spec.name, size=len(cells)
        ) as batch_span:
            for run_spec in cells:
                try:
                    rule = inject("vector.evict", scenario=spec.name, seed=run_spec.seed)
                except InjectedFaultError:
                    rule = True
                if rule is not None:
                    self.stats.record_eviction("fault-plan")
                    evict_event(run_spec.seed, "preflight")
                    evicted_indices.append(run_spec.index)
                else:
                    batch_cells.append(run_spec)
            if len(batch_cells) < 2:
                # A lockstep batch needs at least one fast cell beyond the
                # scalar probe to be worth planning; run undersized groups
                # scalar.
                self.stats.fallback_cells += len(batch_cells)
                batch_span.set(outcome="undersized")
                return evicted_indices + [cell.index for cell in batch_cells]

            started = time.perf_counter()
            batch = LockstepBatch(
                spec.name, dict(cells[0].params), [c.seed for c in batch_cells]
            )
            try:
                outputs = program.run(spec, batch)
            except Exception as exc:  # noqa: BLE001 — fast path must never kill a campaign
                logger.warning(
                    "vector program for %r failed (%s: %s); group of %d falls back "
                    "to the scalar kernel",
                    spec.name,
                    type(exc).__name__,
                    exc,
                    len(batch_cells),
                )
                self.stats.program_errors += 1
                self.stats.fallback_cells += len(batch_cells)
                batch_span.set(outcome="program-error")
                return evicted_indices + [cell.index for cell in batch_cells]
            elapsed = time.perf_counter() - started

            # Mid-flight evictions recorded on the batch by the program.
            evicted_seeds = batch.evicted
            survivors: List[Any] = []
            for run_spec in batch_cells:
                if run_spec.seed in evicted_seeds:
                    self.stats.record_eviction(evicted_seeds[run_spec.seed] or "mid-batch")
                    evict_event(run_spec.seed, "midflight")
                    evicted_indices.append(run_spec.index)
                else:
                    survivors.append(run_spec)
            if not survivors:
                batch_span.set(outcome="all-evicted")
                return evicted_indices

            # Scalar probe: the batch's first surviving cell runs on the
            # scalar kernel and must serialise to the exact bytes the vector
            # path built.
            probe_spec = survivors[0]
            TRACER.instant("probe", seed=probe_spec.seed)
            probe_record = execute_run_with_retry(
                spec,
                probe_spec,
                policy=self.retry_policy,
                breaker=breaker,
                keep_result=True,
            )
            vector_probe = self._vector_record(
                spec, probe_spec, outputs.get(probe_spec.seed)
            )
            verified = vector_probe is not None and self._identical(
                probe_record, vector_probe
            )
            if events is not None:
                events.emit(
                    "vector_batch",
                    scenario=spec.name,
                    size=len(survivors),
                    verified=verified,
                    elapsed_s=round(elapsed, 6),
                )
            if not verified:
                self.stats.probe_mismatches += 1
                self.stats.probe_cells += 1
                self.stats.fallback_cells += len(survivors) - 1
                logger.warning(
                    "vector probe mismatch for %r seed %s; group of %d falls back "
                    "to the scalar kernel",
                    spec.name,
                    probe_spec.seed,
                    len(survivors),
                )
                probe_record.executed_by = "scalar"
                records[probe_spec.index] = probe_record
                if progress is not None:
                    progress.record_record(ok=probe_record.ok)
                batch_span.set(outcome="probe-mismatch")
                return evicted_indices + [cell.index for cell in survivors[1:]]

            # Verified: the batch's records are trusted as-is.
            self.stats.batches += 1
            probe_record.executed_by = "scalar"
            records[probe_spec.index] = probe_record
            self.stats.probe_cells += 1
            if progress is not None:
                progress.record_record(ok=probe_record.ok)
            leftover: List[int] = []
            for run_spec in survivors[1:]:
                record = self._vector_record(spec, run_spec, outputs.get(run_spec.seed))
                if record is None:
                    # The program silently dropped a seed it did not evict;
                    # treat it like an eviction rather than trusting a hole.
                    self.stats.record_eviction("missing-output")
                    evict_event(run_spec.seed, "missing-output")
                    leftover.append(run_spec.index)
                    continue
                record.executed_by = "vector"
                records[run_spec.index] = record
                self.stats.fast_cells += 1
                if progress is not None:
                    progress.record_record(ok=True)
            batch_span.set(outcome="verified", fast_cells=self.stats.fast_cells)
            return evicted_indices + leftover

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
