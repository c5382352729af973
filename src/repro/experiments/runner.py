"""Parallel, resumable campaign execution.

:class:`ParallelCampaignRunner` executes the run list of a scenario spec
through a pluggable :class:`ExecutionBackend` — in-process serial
(:class:`InProcessBackend`), ``multiprocessing`` workers sharded over the
pending ``(params, seed)`` cells (:class:`MultiprocessingBackend`), or a
shared-filesystem work queue spanning hosts
(:class:`repro.distributed.coordinator.SpoolBackend`).  Four properties the
benchmark harness and the acceptance criteria rely on:

* **Determinism** — records are re-assembled in the run-list order whatever
  order workers finish in, so aggregates (and the persisted store) of a
  ``jobs=4`` or spool campaign are identical to a ``jobs=1`` campaign.
* **Fault isolation** — a crashing run becomes a ``status="failed"`` record
  with the captured exception, not a dead campaign.
* **Resume** — with a :class:`~repro.experiments.store.ResultStore` attached,
  runs whose key already has a successful record are reused, not re-run.
* **Caching** — with a :class:`~repro.distributed.cache.CacheIndex`
  attached, cells whose content-addressed key (scenario source + canonical
  params + seed) has a cached successful record are reused *across* stores,
  campaigns and hosts before any dispatch happens.
"""

from __future__ import annotations

import logging
import multiprocessing
import pickle
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.evaluation.metrics import summarize
from repro.observability.events import EventLog
from repro.observability.progress import ProgressTracker
from repro.observability.trace import TRACER
from repro.resilience.faults import inject
from repro.resilience.retry import DEFAULT_RETRY_POLICY, CircuitBreaker, RetryPolicy
from repro.sim import kernel as sim_kernel
from repro.experiments.registry import REGISTRY, ScenarioRegistry, load_builtin_scenarios
from repro.experiments.spec import (
    ParameterGrid,
    RunSpec,
    ScenarioSpec,
    canonical_key,
    content_cache_key,
    jsonable,
)

logger = logging.getLogger(__name__)

#: Phase names that make up a run's breakdown under ``run --profile``.
PROFILE_PHASES = ("scenario.build", "scenario.sim", "run.collect")


@dataclass
class RunRecord:
    """The persisted outcome of one campaign run."""

    scenario: str
    params: Dict[str, Any]
    seed: int
    status: str = "ok"  # "ok" | "failed"
    metrics: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None
    #: Wall-clock seconds; transient, never serialised (keeps stores
    #: byte-identical between serial and parallel executions).
    duration: float = field(default=0.0, compare=False)
    #: The raw factory result; only populated for in-process (serial)
    #: execution, never pickled back from workers nor serialised.
    raw_result: Any = field(default=None, compare=False, repr=False)
    #: Per-phase wall seconds (``scenario.build``/``scenario.sim``/
    #: ``run.collect``); populated only under ``run --profile`` and — like
    #: ``duration`` — transient, never serialised.
    phases: Optional[Dict[str, float]] = field(default=None, compare=False, repr=False)
    #: How many execution attempts this record consumed (retry policy).
    #: Serialised only for failed records: a successful record is the same
    #: bytes whether it needed one attempt or three, which is what keeps
    #: fault-injected campaigns byte-identical to fault-free ones.
    attempts: int = field(default=1, compare=False)
    #: Exception class name of the *final* failure (``None`` when ok).
    error_class: Optional[str] = None
    #: The live exception object of the final failure; transient — used for
    #: transient-vs-deterministic retry classification, stripped before a
    #: record crosses a process boundary or is returned to callers.
    exception: Optional[BaseException] = field(default=None, compare=False, repr=False)
    #: Which execution path settled this cell ("vector", "scalar", "store",
    #: "cache", or a backend name); provenance only — transient and never
    #: serialised, so stores stay byte-identical across backends.
    executed_by: Optional[str] = field(default=None, compare=False, repr=False)

    @property
    def key(self) -> str:
        return canonical_key(self.scenario, self.params, self.seed)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_json_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "key": self.key,
            "scenario": self.scenario,
            "params": jsonable(self.params),
            "seed": self.seed,
            "status": self.status,
            "metrics": jsonable(self.metrics),
        }
        if self.error is not None:
            payload["error"] = self.error
        if self.status != "ok":
            payload["attempts"] = self.attempts
            if self.error_class is not None:
                payload["error_class"] = self.error_class
        return payload

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, Any]) -> "RunRecord":
        return cls(
            scenario=payload["scenario"],
            params=dict(payload["params"]),
            seed=int(payload["seed"]),
            status=payload.get("status", "ok"),
            metrics=dict(payload.get("metrics", {})),
            error=payload.get("error"),
            attempts=int(payload.get("attempts", 1)),
            error_class=payload.get("error_class"),
        )

    def relabelled(self, scenario: str, params: Mapping[str, Any], seed: int) -> "RunRecord":
        """This record's results re-labelled onto another campaign cell.

        Content-addressed cache keys are name-independent (source-addressed),
        so a hit may have been recorded under another alias of the same
        factory; re-labelling keeps stores keyed by (scenario, params, seed)
        byte-identical whichever alias populated the cache.  Every
        serialised field must be carried over here — coordinator-side and
        worker-side cache hits both go through this one place.
        """
        return RunRecord(
            scenario=scenario,
            params=dict(params),
            seed=seed,
            status=self.status,
            metrics=dict(self.metrics),
            error=self.error,
            attempts=self.attempts,
            error_class=self.error_class,
        )


def execute_run(
    spec: ScenarioSpec,
    run_spec: RunSpec,
    keep_result: bool = False,
    profile: bool = False,
) -> RunRecord:
    """Execute one run, capturing any exception into a failed record.

    With ``profile`` set, the record's transient ``phases`` dict carries
    this cell's build/sim/collect wall seconds: ``run.collect`` is timed
    here, build and sim by the simulator kernel into the per-cell
    accumulator (:data:`repro.sim.kernel.PHASES`) installed for this run.
    """
    start = time.perf_counter()
    phases: Optional[Dict[str, float]] = None
    if profile:
        phases = sim_kernel.PHASES = {}
    try:
        inject("run.cell", scenario=spec.name, seed=run_spec.seed)
        result = spec.build(run_spec.seed, run_spec.params)
        collect_start = time.perf_counter()
        metrics = spec.extract_metrics(result)
        if phases is not None:
            phases["run.collect"] = time.perf_counter() - collect_start
        record = RunRecord(
            scenario=spec.name,
            params=dict(run_spec.params),
            seed=run_spec.seed,
            status="ok",
            metrics=metrics,
            raw_result=result if keep_result else None,
        )
    except Exception as exc:  # noqa: BLE001 — a run failure must not kill the campaign
        record = RunRecord(
            scenario=spec.name,
            params=dict(run_spec.params),
            seed=run_spec.seed,
            status="failed",
            error="".join(traceback.format_exception_only(type(exc), exc)).strip(),
            error_class=type(exc).__name__,
            exception=exc,
        )
    finally:
        if phases is not None:
            sim_kernel.PHASES = None
    record.duration = time.perf_counter() - start
    if phases is not None:
        record.phases = {name: phases.get(name, 0.0) for name in PROFILE_PHASES}
    return record


def execute_run_with_retry(
    spec: ScenarioSpec,
    run_spec: RunSpec,
    *,
    policy: Optional[RetryPolicy] = None,
    breaker: Optional[CircuitBreaker] = None,
    keep_result: bool = False,
    profile: bool = False,
    sleep: Any = time.sleep,
) -> RunRecord:
    """Execute one run under a retry policy; always returns a record.

    Transient failures (OSError/Timeout/Connection/``TransientError``)
    are re-executed up to ``policy.max_attempts`` with deterministic
    seeded backoff; deterministic failures return immediately — retrying
    a ``ValueError`` from a buggy factory would only make attempt counts
    depend on scheduling.  The final record carries ``attempts`` and the
    last failure's ``error_class``.  The per-scenario ``breaker`` only
    gates the backoff *sleep* (an open circuit retries without waiting);
    it never changes attempt counts, so records stay byte-identical
    whichever backend — or how congested a worker — executed them.
    """
    policy = DEFAULT_RETRY_POLICY if policy is None else policy
    attempt = 1
    # Every execution path — inline, pool child, spool worker, vector scalar
    # probe/fallback — funnels through here, so the per-cell trace span (and
    # its per-attempt children) is emitted in exactly one place.  The null
    # span while tracing is disabled keeps this one attribute check + empty
    # ``with`` on the hot path.
    with TRACER.span(
        "cell", cat="cell", scenario=spec.name, seed=run_spec.seed
    ) as cell_span:
        while True:
            with TRACER.span("attempt", cat="attempt", n=attempt) as attempt_span:
                record = execute_run(spec, run_spec, keep_result=keep_result, profile=profile)
                if not record.ok:
                    attempt_span.set(failed=record.error_class)
            record.attempts = attempt
            if record.ok:
                if breaker is not None:
                    breaker.record_success(spec.name)
                break
            exc = record.exception
            if breaker is not None and breaker.record_failure(spec.name):
                logger.warning(
                    "circuit open for %r: repeated failures, retry backoff suppressed",
                    spec.name,
                )
            if exc is None or not policy.should_retry(exc, attempt):
                record.exception = None  # never ship a live exception across processes
                break
            delay = policy.delay(attempt, key=run_spec.key)
            if breaker is not None:
                delay = breaker.gate_delay(spec.name, delay)
            if delay > 0.0:
                sleep(delay)
            attempt += 1
        if attempt > 1 or not record.ok:
            cell_span.set(attempts=attempt, status=record.status)
    return record


def _resolve_payload(payload: Any) -> Tuple[Optional[ScenarioSpec], Optional[str]]:
    """Turn a shipped payload (spec object or registry name) into a spec."""
    if not isinstance(payload, str):
        return payload, None
    try:
        return load_builtin_scenarios().get(payload), None
    except KeyError as exc:
        return None, f"worker could not resolve scenario: {exc}"


#: Per-pool-worker-process circuit breaker; persists across batches so a
#: broken factory stops costing backoff stalls within each worker too.
_BATCH_BREAKER: Optional[CircuitBreaker] = None


def _execute_batch(
    task: Tuple[Any, ...],
) -> List[Tuple[int, RunRecord]]:
    """Worker entry point: run one seed-chunk (possibly of size 1).

    The scenario is resolved once per chunk and each cell runs sequentially
    in the worker, so a single process dispatch (pickle + queue round-trip +
    registry resolution) is amortised over the chunk instead of paid per run.
    Records are tagged with their run-list index, so the parent re-assembles
    them in deterministic order no matter how chunks interleave.

    ``task`` may carry a fourth element — ``{"dir", "id", "parent"}`` trace
    config — when the parent campaign is being traced: the pool child
    configures its own tracer from it (each child appends to its own
    ``trace-<pid>.jsonl``) and parents this chunk's spans to the parent's
    campaign span.  Absent (the default), tracing stays disabled in the
    child and the task tuples are identical to PR 7's.
    """
    payload, cells = task[0], task[1]
    policy: Optional[RetryPolicy] = task[2] if len(task) > 2 else None
    trace_cfg: Optional[Dict[str, Any]] = task[3] if len(task) > 3 else None
    global _BATCH_BREAKER
    if _BATCH_BREAKER is None:
        _BATCH_BREAKER = CircuitBreaker()
    if trace_cfg is not None and not TRACER.enabled:
        TRACER.configure(trace_cfg["dir"], trace_id=trace_cfg.get("id"))
    parent_scope = (
        TRACER.parent_scope(trace_cfg.get("parent"))
        if trace_cfg is not None and TRACER.enabled
        else None
    )
    spec, resolve_error = _resolve_payload(payload)
    results: List[Tuple[int, RunRecord]] = []
    if parent_scope is not None:
        parent_scope.__enter__()
    for params, seed, index in cells:
        if spec is None:
            record = RunRecord(
                scenario=str(payload),
                params=dict(params),
                seed=seed,
                status="failed",
                error=resolve_error,
                error_class="ScenarioResolutionError",
            )
        else:
            run_spec = RunSpec(scenario=spec.name, params=dict(params), seed=seed, index=index)
            record = execute_run_with_retry(
                spec, run_spec, policy=policy, breaker=_BATCH_BREAKER
            )
        results.append((index, record))
    if parent_scope is not None:
        parent_scope.__exit__(None, None, None)
    return results


# --------------------------------------------------------------------------
# Execution backends
# --------------------------------------------------------------------------


class ExecutionBackend:
    """How a campaign's pending cells get executed.

    A backend fills ``records[run_spec.index]`` for every pending run spec;
    the runner owns everything around that seam (resume, caching, store
    writes, aggregation).  ``payload`` is the runner's pickled-or-named form
    of the spec for backends that ship work to other processes: the
    registry name when workers can re-resolve it, the spec object itself
    otherwise.  ``progress`` is an optional
    :class:`~repro.observability.progress.ProgressTracker` the backend
    feeds one :meth:`record_record` per settled cell — purely advisory, so
    a backend that ignores it is still correct.  ``events`` is an optional
    :class:`~repro.observability.events.EventLog` for backends with
    taxonomy events to report (the vector backend's batch/evict activity);
    like ``progress`` it is advisory and safely ignorable.
    """

    name = "backend"

    def execute(
        self,
        spec: ScenarioSpec,
        pending: Sequence[RunSpec],
        records: List[Optional[RunRecord]],
        payload: Optional[Any] = None,
        progress: Optional[ProgressTracker] = None,
        events: Optional[EventLog] = None,
    ) -> None:
        raise NotImplementedError

    def finalize(self, spec: ScenarioSpec) -> None:
        """Called once per campaign, even when nothing was pending.

        Backends with external observers (e.g. spool workers waiting on a
        completion marker) use this to signal that the campaign is over —
        a fully resumed/cached campaign never calls :meth:`execute`.
        """


class InProcessBackend(ExecutionBackend):
    """Serial in-process execution; keeps raw factory results available.

    The only backend that can profile: the phase accumulator is a
    process-global slot, so a per-cell breakdown requires the cells to run
    here, one at a time.
    """

    name = "inline"

    def __init__(
        self,
        profile: bool = False,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        self.profile = profile
        self.retry_policy = retry_policy

    def execute(
        self,
        spec: ScenarioSpec,
        pending: Sequence[RunSpec],
        records: List[Optional[RunRecord]],
        payload: Optional[Any] = None,
        progress: Optional[ProgressTracker] = None,
        events: Optional[EventLog] = None,
    ) -> None:
        breaker = CircuitBreaker()
        for run_spec in pending:
            record = execute_run_with_retry(
                spec,
                run_spec,
                policy=self.retry_policy,
                breaker=breaker,
                keep_result=True,
                profile=self.profile,
            )
            records[run_spec.index] = record
            if progress is not None:
                progress.record_record(ok=record.ok)


class MultiprocessingBackend(ExecutionBackend):
    """Seed-sharded ``multiprocessing`` pool on the local host.

    With ``batch_size`` set, pending runs are dispatched in whole
    seed-chunks of that size (one process dispatch executes ``batch_size``
    runs).  Batching only changes how work is shipped: records are
    re-assembled in run-list order either way.
    """

    name = "process"

    def __init__(
        self,
        jobs: int = 2,
        mp_context: Optional[str] = None,
        batch_size: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        self.jobs = max(1, int(jobs))
        self.mp_context = mp_context
        self.batch_size = batch_size
        self.retry_policy = retry_policy

    def execute(
        self,
        spec: ScenarioSpec,
        pending: Sequence[RunSpec],
        records: List[Optional[RunRecord]],
        payload: Optional[Any] = None,
        progress: Optional[ProgressTracker] = None,
        events: Optional[EventLog] = None,
    ) -> None:
        payload = spec if payload is None else payload
        chunk = self.batch_size if self.batch_size is not None else 1
        trace_cfg: Optional[Dict[str, Any]] = None
        if TRACER.enabled:
            trace_cfg = {
                "dir": str(TRACER.directory),
                "id": TRACER.trace_id,
                "parent": TRACER.current_parent,
            }
        tasks = [
            (
                payload,
                [
                    (run_spec.params, run_spec.seed, run_spec.index)
                    for run_spec in pending[start : start + chunk]
                ],
                self.retry_policy,
                trace_cfg,
            )
            for start in range(0, len(pending), chunk)
        ]
        context = multiprocessing.get_context(self.mp_context)
        processes = min(self.jobs, len(tasks))
        try:
            with context.Pool(processes=processes) as pool:
                for batch in pool.imap_unordered(_execute_batch, tasks):
                    for index, record in batch:
                        records[index] = record
                        if progress is not None:
                            progress.record_record(ok=record.ok)
        except (multiprocessing.ProcessError, pickle.PicklingError, OSError, AttributeError, TypeError) as exc:
            # Pool creation or task pickling failed (e.g. an ad-hoc spec whose
            # factory is a closure): fall back to in-process execution.
            logger.warning(
                "parallel execution of %r failed (%s: %s); "
                "falling back to serial in-process runs",
                spec.name,
                type(exc).__name__,
                exc,
            )
            breaker = CircuitBreaker()
            for run_spec in pending:
                if records[run_spec.index] is None:
                    record = execute_run_with_retry(
                        spec,
                        run_spec,
                        policy=self.retry_policy,
                        breaker=breaker,
                        keep_result=True,
                    )
                    records[run_spec.index] = record
                    if progress is not None:
                        progress.record_record(ok=record.ok)


# --------------------------------------------------------------------------
# Aggregation helpers (shared by CampaignResult and the CLI report command)
# --------------------------------------------------------------------------


def _numeric(value: Any) -> Optional[float]:
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    return None


def metric_field_names(records: Sequence[RunRecord], metric_fields: Sequence[str] = ()) -> List[str]:
    if metric_fields:
        return list(metric_fields)
    names: List[str] = []
    for record in records:
        for name in record.metrics:
            if name not in names:
                names.append(name)
    return names


def aggregate_records(
    records: Sequence[RunRecord], metric_fields: Sequence[str] = ()
) -> Dict[str, Dict[str, float]]:
    """Per-metric summary statistics over the successful records."""
    ok_records = [record for record in records if record.ok]
    aggregates: Dict[str, Dict[str, float]] = {}
    for name in metric_field_names(ok_records, metric_fields):
        values = []
        for record in ok_records:
            value = _numeric(record.metrics.get(name))
            if value is not None:
                values.append(value)
        aggregates[name] = summarize(values)
    return aggregates


def grouped_rows(
    records: Sequence[RunRecord],
    by: Sequence[str],
    metric_fields: Sequence[str] = (),
) -> List[Dict[str, Any]]:
    """One row per distinct combination of the ``by`` parameters.

    Numeric metrics are averaged over the group's successful runs; a
    non-numeric metric is kept only when every run in the group agrees on it.
    """
    groups: Dict[Tuple[Any, ...], List[RunRecord]] = {}
    for record in records:
        key = tuple(record.params.get(name) for name in by)
        groups.setdefault(key, []).append(record)
    fields = metric_field_names([r for r in records if r.ok], metric_fields)
    rows: List[Dict[str, Any]] = []
    for key, group in groups.items():
        row: Dict[str, Any] = dict(zip(by, key))
        ok_group = [record for record in group if record.ok]
        row["runs"] = len(group)
        # Always present so the column survives format_table's first-row layout.
        row["failures"] = len(group) - len(ok_group)
        for name in fields:
            if name in row:
                continue
            numeric = [
                value
                for value in (_numeric(r.metrics.get(name)) for r in ok_group)
                if value is not None
            ]
            if numeric:
                row[name] = numeric[0] if len(numeric) == 1 else sum(numeric) / len(numeric)
                continue
            raw = [r.metrics.get(name) for r in ok_group if name in r.metrics]
            if raw and all(value == raw[0] for value in raw):
                row[name] = raw[0]
        rows.append(row)
    return rows


@dataclass
class CampaignResult:
    """The deterministic outcome of one campaign."""

    scenario: str
    spec: ScenarioSpec
    records: List[RunRecord]
    aggregates: Dict[str, Dict[str, float]]
    #: Runs reused from the attached store (resume).
    reused: int = 0
    jobs: int = 1
    #: Runs reused from the shared content-addressed cache.
    cached: int = 0
    backend: str = ""
    #: Per-execution-path cell counts ("vector"/"scalar"/"store"/"cache"/
    #: backend name -> count); surfaced by ``run`` and ``report``.
    backend_cells: Dict[str, int] = field(default_factory=dict)

    @property
    def run_count(self) -> int:
        return len(self.records)

    @property
    def executed(self) -> int:
        return self.run_count - self.reused - self.cached

    @property
    def ok_records(self) -> List[RunRecord]:
        return [record for record in self.records if record.ok]

    @property
    def failed_records(self) -> List[RunRecord]:
        return [record for record in self.records if not record.ok]

    @property
    def failures(self) -> int:
        return len(self.failed_records)

    def metric(self, name: str, statistic: str = "mean") -> float:
        return self.aggregates[name][statistic]

    def aggregate_rows(self) -> List[Dict[str, Any]]:
        return [
            {"metric": name, **stats}
            for name, stats in self.aggregates.items()
            if stats.get("count")
        ]

    def grouped_rows(
        self, by: Sequence[str], metric_fields: Sequence[str] = ()
    ) -> List[Dict[str, Any]]:
        return grouped_rows(self.records, by, metric_fields or self.spec.metric_fields)

    def failure_rows(self) -> List[Dict[str, Any]]:
        return [
            {
                "seed": record.seed,
                "attempts": record.attempts,
                "error_class": record.error_class or "?",
                "error": record.error or "?",
                "params": record.params,
            }
            for record in self.failed_records
        ]


class ParallelCampaignRunner:
    """Runs campaigns over registered scenarios through a pluggable backend.

    Without an explicit ``backend``, ``jobs=1`` executes serially in-process
    and ``jobs>1`` shards over a local ``multiprocessing`` pool; passing a
    :class:`~repro.distributed.coordinator.SpoolBackend` shards the campaign
    across worker processes (possibly on other hosts) via a shared
    filesystem spool.  Whichever backend runs the cells, records are
    re-assembled in run-list order, so results and stores are byte-identical
    across backends, job counts and batch sizes.

    With a ``cache`` (:class:`~repro.distributed.cache.CacheIndex`)
    attached, cells whose content-addressed key — scenario *source* +
    canonical params + seed — already has a successful record are reused
    before dispatch, and freshly-executed successes are published back.
    The cache is shared by all stores: completing a campaign once warms it
    for every later campaign touching the same cells, and editing one
    scenario's source never invalidates another scenario's entries.
    """

    def __init__(
        self,
        jobs: int = 1,
        registry: Optional[ScenarioRegistry] = None,
        store: Optional[Any] = None,
        resume: bool = True,
        mp_context: Optional[str] = None,
        batch_size: Optional[int] = None,
        backend: Optional[ExecutionBackend] = None,
        cache: Optional[Any] = None,
        progress_path: Optional[Any] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        if batch_size is not None and int(batch_size) < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.jobs = max(1, int(jobs))
        self.registry = registry if registry is not None else REGISTRY
        self.store = store
        self.resume = resume
        self.mp_context = mp_context
        self.batch_size = int(batch_size) if batch_size is not None else None
        self.backend = backend
        self.cache = cache
        #: Retry policy handed to the backends this runner constructs
        #: (an explicitly-passed ``backend`` keeps its own policy).
        self.retry_policy = retry_policy
        #: Where to maintain the campaign's ``progress.json``; defaults to a
        #: ``<store path>.progress.json`` sidecar when a store is attached.
        self.progress_path = progress_path

    # ----------------------------------------------------------------- public
    def run(
        self,
        scenario: Union[str, ScenarioSpec],
        *,
        params: Optional[Mapping[str, Any]] = None,
        sweep: Optional[Iterable[Mapping[str, Any]]] = None,
        seeds: Optional[Sequence[int]] = None,
    ) -> CampaignResult:
        spec = self._resolve(scenario)
        # The campaign root span: every other span in the trace — cells,
        # attempts, publishes, worker tasks — descends from it, and the
        # critical-path walk uses its bounds as the measured wall-clock.
        with TRACER.span("campaign", cat="campaign", parent=None, scenario=spec.name):
            return self._run(spec, params=params, sweep=sweep, seeds=seeds)

    def _run(
        self,
        spec: ScenarioSpec,
        *,
        params: Optional[Mapping[str, Any]] = None,
        sweep: Optional[Iterable[Mapping[str, Any]]] = None,
        seeds: Optional[Sequence[int]] = None,
    ) -> CampaignResult:
        run_specs = spec.runs(params=params, sweep=sweep, seeds=seeds)
        records: List[Optional[RunRecord]] = [None] * len(run_specs)

        pending: List[RunSpec] = []
        reused = 0
        if self.store is not None and self.resume:
            for run_spec in run_specs:
                stored = self.store.get(run_spec.key)
                if stored is not None and stored.ok:
                    stored.executed_by = "store"
                    records[run_spec.index] = stored
                    reused += 1
                else:
                    pending.append(run_spec)
        else:
            pending = list(run_specs)

        pending, cache_keys, cached = self._consult_cache(spec, pending, records)

        backend = self._backend_for(pending)
        tracker = self._progress_tracker(spec, backend)
        if tracker is not None:
            tracker.begin(total=len(run_specs), reused=reused, cached=cached)
            tracker.set_running(len(pending))
        if pending:
            backend.execute(
                spec,
                pending,
                records,
                payload=self._payload_for(spec),
                progress=tracker,
                events=self._event_log(backend),
            )
            # Backends that distinguish execution paths (vector/scalar) label
            # records themselves; everything else is attributed to the backend.
            for run_spec in pending:
                record = records[run_spec.index]
                if record is not None and record.executed_by is None:
                    record.executed_by = backend.name
            self._publish_to_cache(pending, cache_keys, records)
        backend.finalize(spec)
        backend_cells: Dict[str, int] = {}
        for record in records:
            if record is not None:
                label = record.executed_by or backend.name
                backend_cells[label] = backend_cells.get(label, 0) + 1
        if tracker is not None:
            tracker.finish(backend_cells=backend_cells)
        flush_stats = getattr(self.cache, "flush_stats", None)
        if flush_stats is not None:
            flush_stats()

        final_records = [record for record in records if record is not None]
        if self.store is not None:
            # Cache hits count as new material for the store (they were not
            # resumed from it), keeping the persisted store complete and
            # byte-identical to a cache-less run of the same campaign.
            fresh_indices = {run_spec.index for run_spec in pending} | {
                index for index, key in cache_keys.items() if records[index] is not None
            }
            self.store.add_many(
                record
                for index, record in enumerate(records)
                if record is not None and index in fresh_indices
            )
        aggregates = aggregate_records(final_records, spec.metric_fields)
        return CampaignResult(
            scenario=spec.name,
            spec=spec,
            records=final_records,
            aggregates=aggregates,
            reused=reused,
            jobs=self.jobs,
            cached=cached,
            backend=backend.name,
            backend_cells=backend_cells,
        )

    # ---------------------------------------------------------------- internal
    def _resolve(self, scenario: Union[str, ScenarioSpec]) -> ScenarioSpec:
        if isinstance(scenario, ScenarioSpec):
            return scenario
        if self.registry is REGISTRY:
            load_builtin_scenarios()
        return self.registry.get(scenario)

    def _progress_tracker(
        self, spec: ScenarioSpec, backend: ExecutionBackend
    ) -> Optional[ProgressTracker]:
        path = self.progress_path
        if path is None:
            store_path = getattr(self.store, "path", None)
            if store_path is None:
                return None
            path = Path(f"{store_path}.progress.json")
        return ProgressTracker(path, scenario=spec.name, backend=backend.name)

    def _event_log(self, backend: ExecutionBackend) -> Optional[EventLog]:
        """A ``<store>.events.jsonl`` sidecar for backend taxonomy events.

        Spool campaigns keep their event log inside the spool (the backend
        owns it and ignores this one); store-backed campaigns get a sidecar
        next to the store so ``tail <store>`` can surface e.g. the vector
        backend's batch/evict activity.  No store → no sidecar.
        """
        if getattr(backend, "name", "") == "spool":
            return None
        store_path = getattr(self.store, "path", None)
        if store_path is None:
            return None
        return EventLog(Path(f"{store_path}.events.jsonl"), source=backend.name)

    def _backend_for(self, pending: Sequence[RunSpec]) -> ExecutionBackend:
        if self.backend is not None:
            return self.backend
        if self.jobs == 1 or len(pending) <= 1:
            return InProcessBackend(retry_policy=self.retry_policy)
        return MultiprocessingBackend(
            jobs=self.jobs,
            mp_context=self.mp_context,
            batch_size=self.batch_size,
            retry_policy=self.retry_policy,
        )

    def _payload_for(self, spec: ScenarioSpec) -> Any:
        """Ship the scenario by name when workers can re-resolve it, else by value."""
        if (
            self.registry is REGISTRY
            and spec.name in self.registry
            and self.registry.get(spec.name) is spec
        ):
            return spec.name
        return spec

    def _consult_cache(
        self,
        spec: ScenarioSpec,
        pending: List[RunSpec],
        records: List[Optional[RunRecord]],
    ) -> Tuple[List[RunSpec], Dict[int, str], int]:
        """Fill cells the shared cache already has; returns what remains.

        The per-index key map covers both hits (so the store write treats
        them as fresh material) and misses (so successful executions can be
        published back without re-hashing).
        """
        if self.cache is None or not pending:
            return pending, {}, 0
        source_fingerprint = spec.source_fingerprint()
        if source_fingerprint is None:
            return pending, {}, 0
        still_pending: List[RunSpec] = []
        cache_keys: Dict[int, str] = {}
        cached = 0
        for run_spec in pending:
            key = content_cache_key(source_fingerprint, run_spec.params, run_spec.seed)
            record = self.cache.get(key)
            if record is not None and record.ok:
                hit = record.relabelled(run_spec.scenario, run_spec.params, run_spec.seed)
                hit.executed_by = "cache"
                records[run_spec.index] = hit
                cache_keys[run_spec.index] = key
                cached += 1
            else:
                still_pending.append(run_spec)
                cache_keys[run_spec.index] = key
        return still_pending, cache_keys, cached

    def _publish_to_cache(
        self,
        pending: Sequence[RunSpec],
        cache_keys: Dict[int, str],
        records: List[Optional[RunRecord]],
    ) -> None:
        if self.cache is None or not cache_keys:
            return
        # Spool workers sharing this cache have already published the cells
        # they ran; skipping what is published writes each executed cell once.
        self.cache.put_many(
            (key, records[run_spec.index])
            for run_spec in pending
            if records[run_spec.index] is not None
            and (key := cache_keys.get(run_spec.index)) is not None
            and key not in self.cache
        )
