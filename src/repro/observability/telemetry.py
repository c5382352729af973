"""Thread-safe metrics registry: counters, gauges, monotonic timer spans.

A :class:`TelemetryRegistry` is a passive accumulator the instrumented code
writes into and the status/profile surfaces read out of.  Its contract:

* **Physics-blind** — telemetry never draws randomness, never schedules or
  reorders simulator events, and never contributes to result bytes.  The
  fingerprint suite re-runs with telemetry enabled to pin this: all 20
  workload fingerprints must stay byte-identical.
* **Near-zero when off** — the registry is disabled by default;
  :meth:`TelemetryRegistry.timer` then returns a shared no-op span and
  :meth:`count`/:meth:`gauge` return after one attribute check, so the
  perf-budget gate runs against un-instrumented-equivalent code (guarded
  by ``benchmarks/perf_budgets.py``).
* **Thread-safe** — one lock guards the maps; spans record on exit under
  that lock, so concurrent worker threads cannot corrupt aggregates.

Timer spans use :func:`time.perf_counter` (monotonic); wall clocks appear
only in the progress/event layers, never here.

The process-global default instance (:func:`get_telemetry`) is what the
simulator kernel, scenario harness, runner and cache report into; enable
it with ``REPRO_TELEMETRY=1``, :func:`set_telemetry_enabled` or the
:func:`telemetry_enabled` context manager (used by ``run --profile``).

The vectorized backend (:mod:`repro.vectorized`) reports
``vector.batch`` (verified lockstep batches) and ``vector.evict``
(seeds evicted to the scalar kernel) counters plus a
``vector.occupancy`` gauge (fast-path fraction of backend-executed
cells); its always-on :class:`~repro.vectorized.engine.VectorStats`
carries the same numbers when telemetry is disabled.
"""

from __future__ import annotations

import os
import random
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Dict, Iterator, List

#: Per-timer reservoir size for percentile estimation.  128 samples keep a
#: p95 estimate within a few percent for unimodal span distributions while
#: bounding memory at ~1 KiB per timer regardless of campaign size.
RESERVOIR_SIZE = 128


class _NullSpan:
    """Shared no-op context manager returned while telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


def _percentile(sorted_sample: List[float], q: float) -> float:
    """Nearest-rank-with-interpolation percentile of a pre-sorted sample."""
    if not sorted_sample:
        return 0.0
    if len(sorted_sample) == 1:
        return sorted_sample[0]
    position = q * (len(sorted_sample) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_sample) - 1)
    weight = position - low
    return sorted_sample[low] * (1.0 - weight) + sorted_sample[high] * weight


class _Span:
    """A live timer span; records its elapsed time on ``__exit__``."""

    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: "TelemetryRegistry", name: str):
        self._registry = registry
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        self._registry.record_span(self._name, perf_counter() - self._start)
        return False


class TelemetryRegistry:
    """Counters, gauges and timer aggregates behind one lock."""

    def __init__(self, enabled: bool = False):
        self._lock = threading.Lock()
        self.enabled = bool(enabled)
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        #: name -> [count, total_s, min_s, max_s]
        self._timers: Dict[str, List[float]] = {}
        #: name -> bounded sample of span durations (Algorithm R reservoir)
        #: for p50/p95 estimates.  The registry owns its own fixed-seed RNG:
        #: telemetry must never draw from (or reseed) any stream the physics
        #: sees, and a fixed seed keeps registry behaviour reproducible.
        self._reservoirs: Dict[str, List[float]] = {}
        self._sample_rng = random.Random(0x7E1E)

    # ------------------------------------------------------------------ write
    def count(self, name: str, value: int = 1) -> None:
        """Increment a counter (no-op while disabled)."""
        if not self.enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set a gauge to its latest value (no-op while disabled)."""
        if not self.enabled:
            return
        with self._lock:
            self._gauges[name] = float(value)

    def timer(self, name: str):
        """A context manager timing one span of ``name``.

        Returns the shared no-op span while disabled, so instrumented code
        pays one attribute check and an empty ``with`` block.
        """
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name)

    def record_span(self, name: str, seconds: float) -> None:
        """Fold one measured span into the ``name`` timer aggregate."""
        with self._lock:
            stats = self._timers.get(name)
            if stats is None:
                self._timers[name] = [1, seconds, seconds, seconds]
            else:
                stats[0] += 1
                stats[1] += seconds
                if seconds < stats[2]:
                    stats[2] = seconds
                if seconds > stats[3]:
                    stats[3] = seconds
            reservoir = self._reservoirs.setdefault(name, [])
            if len(reservoir) < RESERVOIR_SIZE:
                reservoir.append(seconds)
            else:
                # Algorithm R: the i-th span (1-based) replaces a random
                # slot with probability RESERVOIR_SIZE / i, keeping the
                # reservoir a uniform sample of every span seen so far.
                slot = self._sample_rng.randrange(self._timers[name][0])
                if slot < RESERVOIR_SIZE:
                    reservoir[slot] = seconds

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._timers.clear()
            self._reservoirs.clear()

    # ------------------------------------------------------------------- read
    def counters(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counters)

    def gauges(self) -> Dict[str, float]:
        with self._lock:
            return dict(self._gauges)

    def timers(self) -> Dict[str, Dict[str, float]]:
        """Per-timer aggregates: count, total/min/max/mean and estimated
        p50/p95 seconds (exact up to :data:`RESERVOIR_SIZE` spans, then a
        uniform-reservoir estimate)."""
        with self._lock:
            out: Dict[str, Dict[str, float]] = {}
            for name, stats in self._timers.items():
                sample = sorted(self._reservoirs.get(name, ()))
                out[name] = {
                    "count": stats[0],
                    "total_s": stats[1],
                    "min_s": stats[2],
                    "max_s": stats[3],
                    "mean_s": stats[1] / stats[0],
                    "p50_s": _percentile(sample, 0.50),
                    "p95_s": _percentile(sample, 0.95),
                }
            return out

    def timer_totals(self) -> Dict[str, float]:
        """Just the total seconds per timer (cheap per-cell profiling diffs)."""
        with self._lock:
            return {name: stats[1] for name, stats in self._timers.items()}

    def snapshot(self) -> Dict[str, Any]:
        """One JSON-ready dict of everything recorded so far."""
        return {
            "enabled": self.enabled,
            "counters": self.counters(),
            "gauges": self.gauges(),
            "timers": self.timers(),
        }


#: The process-global default registry every instrumented subsystem uses.
TELEMETRY = TelemetryRegistry()


def reset_telemetry() -> None:
    """Return the default registry to a new process's state: empty, and
    enabled only when ``REPRO_TELEMETRY`` says so.  Runs at import, and
    again in each spool worker forked from a coordinator."""
    TELEMETRY.reset()
    TELEMETRY.enabled = os.environ.get("REPRO_TELEMETRY", "") not in ("", "0")


reset_telemetry()


def get_telemetry() -> TelemetryRegistry:
    return TELEMETRY


def set_telemetry_enabled(enabled: bool) -> bool:
    """Toggle the default registry; returns the previous state."""
    previous = TELEMETRY.enabled
    TELEMETRY.enabled = bool(enabled)
    return previous


@contextmanager
def telemetry_enabled(enabled: bool = True) -> Iterator[TelemetryRegistry]:
    """Temporarily enable (or disable) the default registry."""
    previous = set_telemetry_enabled(enabled)
    try:
        yield TELEMETRY
    finally:
        set_telemetry_enabled(previous)
