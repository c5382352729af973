"""Retry policies, error classification, and a per-scenario circuit breaker.

Everything here is deterministic on purpose: backoff jitter is seeded by
``(policy.seed, key, attempt)`` rather than drawn from a process-global
RNG, and the circuit breaker only suppresses backoff *sleeps* — it never
changes how many attempts a cell gets — so the records produced by a
retried campaign are byte-identical whichever backend executed it.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

__all__ = [
    "CircuitBreaker",
    "DEFAULT_RETRY_POLICY",
    "SPOOL_IO_RETRY_POLICY",
    "RetryPolicy",
    "TransientError",
    "classify_error",
]


class TransientError(RuntimeError):
    """Raise from a scenario factory to mark a failure as retryable."""


#: Exception types retried by default.  OSError covers the injected
#: ENOSPC/slow-I/O family plus real filesystem hiccups on shared spools.
_TRANSIENT_TYPES: Tuple[type, ...] = (
    OSError,
    TimeoutError,
    ConnectionError,
    InterruptedError,
    TransientError,
)


def classify_error(exc: BaseException) -> str:
    """``"transient"`` (worth retrying) or ``"deterministic"`` (not).

    A deterministic failure — an assertion, a ValueError from bad
    params, a bug in a factory — will fail identically on every
    attempt, so retrying it just burns time and (worse) makes failed
    records attempt-count-dependent on scheduling.  Only infrastructure
    errors are classified transient.
    """
    return "transient" if isinstance(exc, _TRANSIENT_TYPES) else "deterministic"


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with seeded jitter.

    ``delay(attempt, key)`` is a pure function of the policy and its
    inputs: the jitter RNG is seeded per ``(seed, key, attempt)``, so
    two processes retrying the same cell back off identically and a
    replayed chaos campaign sleeps the same schedule every run.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be within [0, 1], got {self.jitter}")

    def classify(self, exc: BaseException) -> str:
        return classify_error(exc)

    def should_retry(self, exc: BaseException, attempt: int) -> bool:
        """True when ``attempt`` (1-based, just failed) deserves another."""
        if attempt >= self.max_attempts:
            return False
        return classify_error(exc) == "transient"

    def delay(self, attempt: int, key: str = "") -> float:
        """Backoff before attempt ``attempt + 1`` (deterministic)."""
        raw = min(
            self.max_delay,
            self.base_delay * (self.multiplier ** max(0, attempt - 1)),
        )
        if not self.jitter or raw <= 0.0:
            return max(0.0, raw)
        rng = random.Random(f"{self.seed}|{key}|{attempt}")
        span = 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(0.0, raw * span)

    def call(
        self,
        fn: Callable[[], Any],
        *,
        key: str = "",
        sleep: Callable[[float], None] = time.sleep,
    ) -> Any:
        """Run ``fn`` with transient-retry semantics; re-raise otherwise."""
        attempt = 1
        while True:
            try:
                return fn()
            except Exception as exc:
                if not self.should_retry(exc, attempt):
                    raise
                sleep(self.delay(attempt, key))
                attempt += 1


#: Cell execution: three attempts with human-scale backoff.
DEFAULT_RETRY_POLICY = RetryPolicy()

#: Spool I/O (shard writes, heartbeats): quick retries — a worker
#: blocking seconds on a lease renewal would defeat the lease.
SPOOL_IO_RETRY_POLICY = RetryPolicy(max_attempts=3, base_delay=0.02, max_delay=0.2)


class CircuitBreaker:
    """Per-key consecutive-failure breaker that *only* skips backoff.

    After ``threshold`` consecutive failures for a key (a scenario
    name), the circuit opens: subsequent retries for that key proceed
    immediately instead of sleeping through backoff.  Attempt counts
    are untouched — that keeps failed records byte-identical across
    backends — but a wholly broken factory in a mixed campaign stops
    costing ``failures x backoff`` of wall-clock stall.
    """

    def __init__(self, threshold: int = 5):
        if threshold < 1:
            raise ValueError("CircuitBreaker.threshold must be >= 1")
        self.threshold = threshold
        self._lock = threading.Lock()
        self._consecutive: Dict[str, int] = {}
        self._open: Dict[str, bool] = {}

    def record_success(self, key: str) -> None:
        with self._lock:
            self._consecutive[key] = 0
            self._open[key] = False

    def record_failure(self, key: str) -> bool:
        """Count a failure; True when this one newly opened the circuit."""
        with self._lock:
            count = self._consecutive.get(key, 0) + 1
            self._consecutive[key] = count
            if count >= self.threshold and not self._open.get(key, False):
                self._open[key] = True
                return True
            return False

    def is_open(self, key: str) -> bool:
        with self._lock:
            return self._open.get(key, False)

    def open_keys(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(k for k, v in self._open.items() if v))

    def gate_delay(self, key: str, delay: float) -> float:
        """The backoff actually slept: 0 once the circuit is open."""
        return 0.0 if self.is_open(key) else delay
