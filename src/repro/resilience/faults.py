"""Deterministic fault injection for the execution fabric.

The execution stack (spool, worker, coordinator, cache, runner) carries
named *injection points* — single calls to :func:`inject` with a point
name and a little context.  When no plan is armed the call is one global
read and a ``None`` compare, so production paths pay nothing.  When a
:class:`FaultPlan` is armed, each rule deterministically decides whether
to fire at a given point based on seeded counters — never wall-clock or
process ids — so a chaos campaign replays identically run after run.

Injection points currently threaded through the stack:

======================== ==========================================
point                    where
======================== ==========================================
``run.cell``             top of ``execute_run`` (per cell attempt)
``worker.start``         worker loop entry, once, before the first
                         claim (``sleep`` = a slow start-up)
``worker.cell``          worker loop, before each cell of a task
``spool.write_shard``    result-shard write
``spool.lease_heartbeat`` mtime lease renewal on a claimed task
``cache.get``            cache lookup
``cache.put``            cache publish
``events.emit``          events.jsonl append
``coordinator.poll``     coordinator collect loop, once per poll
``worker.deadline``      when a cell's wall-clock deadline is armed
                         (``stall`` disables the watchdog for the cell)
======================== ==========================================

Fault kinds:

``crash``       ``os._exit`` (default code 137) — simulates SIGKILL
``io_error``    raise :class:`InjectedFaultError` (an ``OSError``,
                default errno ENOSPC) at the injection point
``sleep``       block for ``args.seconds`` (slow I/O / stall)
``torn_write``  returned to the call site as a directive: write a
                truncated/partial file instead of an atomic one
``corrupt``     directive: garble the object after writing it
``stall``       directive: skip the side effect entirely (e.g. a
                lease renewal that never lands)

Arming:

* in-process: ``arm(plan)`` / ``disarm()`` or the :func:`armed`
  context manager;
* across processes: point ``REPRO_FAULT_PLAN`` at a saved plan file —
  a process reads it at import time and a forked spool worker when it
  starts (:func:`arm_from_environment`), which is how a coordinator-armed
  plan reaches its spawned workers.

``REPRO_FAULT_GENERATION`` (int, default 0) identifies respawn
generations: a rule with ``max_generation: 0`` kills the first wave of
workers but lets their replacements (generation 1+) run clean, which is
what makes crash-chaos campaigns converge deterministically.
"""

from __future__ import annotations

import errno
import json
import logging
import os
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

logger = logging.getLogger(__name__)

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultRule",
    "InjectedFaultError",
    "PLAN_ENV",
    "GENERATION_ENV",
    "arm",
    "armed",
    "arm_from_environment",
    "armed_plan",
    "current_generation",
    "disarm",
    "inject",
]

PLAN_ENV = "REPRO_FAULT_PLAN"
GENERATION_ENV = "REPRO_FAULT_GENERATION"

FAULT_KINDS = frozenset(
    {"crash", "io_error", "sleep", "torn_write", "corrupt", "stall"}
)

#: Kinds acted on inside ``inject`` itself; the rest are returned to the
#: call site as directives because only it knows how to tear its write.
_IMMEDIATE_KINDS = frozenset({"crash", "io_error", "sleep"})


class InjectedFaultError(OSError):
    """An injected I/O failure (distinguishable from organic OSErrors)."""

    def __init__(self, point: str, message: str = "", *, err: int = errno.ENOSPC):
        detail = message or f"injected fault at {point}"
        super().__init__(err, detail)
        self.point = point


def current_generation() -> int:
    """Respawn generation of this process (0 = first wave)."""
    raw = os.environ.get(GENERATION_ENV, "")
    try:
        return int(raw) if raw else 0
    except ValueError:
        return 0


@dataclass(frozen=True)
class FaultRule:
    """One deterministic fault trigger.

    A rule matches calls to ``inject(point, **ctx)`` whose point equals
    ``point`` and whose context contains every ``match`` item.  Matching
    calls are counted per process; the rule fires on call number ``at``
    (1-based), then every ``every``-th matching call after that, at most
    ``times`` times total (``None`` = unlimited).  ``rate`` adds a
    seeded-random gate on top.  ``max_generation`` restricts firing to
    early respawn generations.
    """

    point: str
    kind: str
    match: Mapping[str, Any] = field(default_factory=dict)
    at: int = 1
    every: Optional[int] = None
    times: Optional[int] = 1
    rate: Optional[float] = None
    max_generation: Optional[int] = None
    args: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{sorted(FAULT_KINDS)}"
            )
        if self.at < 1:
            raise ValueError("FaultRule.at is 1-based and must be >= 1")
        if self.every is not None and self.every < 1:
            raise ValueError("FaultRule.every must be >= 1")

    def matches(self, point: str, ctx: Mapping[str, Any]) -> bool:
        if point != self.point:
            return False
        return all(ctx.get(key) == value for key, value in self.match.items())

    def to_json_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"point": self.point, "kind": self.kind}
        if self.match:
            payload["match"] = dict(self.match)
        if self.at != 1:
            payload["at"] = self.at
        if self.every is not None:
            payload["every"] = self.every
        if self.times != 1:
            payload["times"] = self.times
        if self.rate is not None:
            payload["rate"] = self.rate
        if self.max_generation is not None:
            payload["max_generation"] = self.max_generation
        if self.args:
            payload["args"] = dict(self.args)
        return payload

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, Any]) -> "FaultRule":
        return cls(
            point=str(payload["point"]),
            kind=str(payload["kind"]),
            match=dict(payload.get("match", {})),
            at=int(payload.get("at", 1)),
            every=payload.get("every"),
            times=payload.get("times", 1),
            rate=payload.get("rate"),
            max_generation=payload.get("max_generation"),
            args=dict(payload.get("args", {})),
        )


class FaultPlan:
    """A seeded, serialisable set of :class:`FaultRule` triggers."""

    def __init__(self, rules: Sequence[FaultRule] = (), *, seed: int = 0):
        self.seed = int(seed)
        self.rules: List[FaultRule] = list(rules)
        self._lock = threading.Lock()
        self._calls = [0] * len(self.rules)
        self._fired = [0] * len(self.rules)
        self._rngs = [
            random.Random(f"{self.seed}|rule-{index}")
            for index in range(len(self.rules))
        ]
        #: Chronological record of fired faults (for tests/reporting).
        self.log: List[Dict[str, Any]] = []

    # -- triggering ---------------------------------------------------

    def fire(self, point: str, ctx: Mapping[str, Any]) -> Optional[FaultRule]:
        """Return the directive rule firing at ``point`` (or act + None)."""
        generation = current_generation()
        directive: Optional[FaultRule] = None
        act: Optional[FaultRule] = None
        with self._lock:
            for index, rule in enumerate(self.rules):
                if not rule.matches(point, ctx):
                    continue
                if (
                    rule.max_generation is not None
                    and generation > rule.max_generation
                ):
                    continue
                self._calls[index] += 1
                calls = self._calls[index]
                if calls < rule.at:
                    continue
                if rule.every is not None and (calls - rule.at) % rule.every:
                    continue
                if rule.times is not None and self._fired[index] >= rule.times:
                    continue
                if rule.rate is not None and self._rngs[index].random() >= rule.rate:
                    continue
                self._fired[index] += 1
                self.log.append(
                    {"point": point, "kind": rule.kind, "rule": index, "ctx": dict(ctx)}
                )
                if rule.kind in _IMMEDIATE_KINDS:
                    act = rule
                elif directive is None:
                    directive = rule
                # Keep scanning so every matching rule's call counter
                # advances deterministically, but one immediate action
                # (or one directive) per call is plenty.
                if act is not None:
                    break
        if act is not None:
            self._act(act, point)
        return directive

    def _act(self, rule: FaultRule, point: str) -> None:
        if rule.kind == "crash":
            code = int(rule.args.get("code", 137))
            logger.warning("fault injection: crashing process at %s (exit %d)", point, code)
            # Flush whatever logging managed to emit, then die like SIGKILL:
            # no atexit hooks, no finally blocks, no flushed buffers.
            logging.shutdown()
            os._exit(code)
        elif rule.kind == "io_error":
            err = int(rule.args.get("errno", errno.ENOSPC))
            raise InjectedFaultError(point, str(rule.args.get("message", "")), err=err)
        elif rule.kind == "sleep":
            time.sleep(float(rule.args.get("seconds", 0.05)))

    def fired_counts(self) -> Dict[str, int]:
        """Fired-count per ``point:kind`` (for assertions and reports)."""
        counts: Dict[str, int] = {}
        with self._lock:
            for rule, fired in zip(self.rules, self._fired):
                if fired:
                    key = f"{rule.point}:{rule.kind}"
                    counts[key] = counts.get(key, 0) + fired
        return counts

    # -- serialisation ------------------------------------------------

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "version": 1,
            "seed": self.seed,
            "rules": [rule.to_json_dict() for rule in self.rules],
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, Any]) -> "FaultPlan":
        return cls(
            [FaultRule.from_json_dict(entry) for entry in payload.get("rules", [])],
            seed=int(payload.get("seed", 0)),
        )

    def save(self, path: Path) -> Path:
        path = Path(path)
        path.write_text(
            json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return path

    @classmethod
    def load(cls, path: Path) -> "FaultPlan":
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls.from_json_dict(payload)


# -- process-global arming --------------------------------------------

_PLAN: Optional[FaultPlan] = None


def arm(plan: FaultPlan) -> FaultPlan:
    """Arm ``plan`` process-wide; returns it for chaining."""
    global _PLAN
    _PLAN = plan
    return plan


def disarm() -> None:
    global _PLAN
    _PLAN = None


def armed_plan() -> Optional[FaultPlan]:
    return _PLAN


class armed:
    """Context manager: arm a plan for a ``with`` block, restore after."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._previous: Optional[FaultPlan] = None

    def __enter__(self) -> FaultPlan:
        self._previous = _PLAN
        arm(self.plan)
        return self.plan

    def __exit__(self, *exc_info: Any) -> None:
        global _PLAN
        _PLAN = self._previous


def inject(point: str, **ctx: Any) -> Optional[FaultRule]:
    """Fault-injection hook — a no-op unless a plan is armed.

    Returns a directive :class:`FaultRule` (``torn_write`` / ``corrupt``
    / ``stall``) for the call site to honour, or ``None``.  ``crash`` /
    ``io_error`` / ``sleep`` rules act right here.
    """
    plan = _PLAN
    if plan is None:
        return None
    return plan.fire(point, ctx)


def arm_from_environment() -> None:
    """Replace any armed plan with the one ``REPRO_FAULT_PLAN`` names, its
    counters at zero.  Runs at import, and again in each spool worker forked
    from a coordinator."""
    disarm()
    path = os.environ.get(PLAN_ENV)
    if not path:
        return
    try:
        arm(FaultPlan.load(Path(path)))
        logger.info(
            "fault plan armed from %s=%s (generation %d)",
            PLAN_ENV,
            path,
            current_generation(),
        )
    except (OSError, ValueError, KeyError) as exc:
        logger.warning("ignoring unreadable fault plan %s: %s", path, exc)


arm_from_environment()
