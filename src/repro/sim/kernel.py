"""Discrete-event simulation kernel.

A minimal, deterministic scheduler.  Heap entries are plain ``(time,
priority, seq, event)`` tuples: ``seq`` is unique, so tuple comparison is
resolved in C before ever reaching the event object, and ties are broken by
insertion order so a given seed always produces an identical schedule.  The
event payload itself is a tiny ``__slots__`` record carrying the callback
and its cancelled/executed state.

Cancelled events are removed lazily: :meth:`Timer.cancel` only flags the
event, and the kernel drops flagged entries when they surface at the top of
the heap.  When cancelled entries pile up (long-lived timers that are almost
always cancelled, e.g. retransmission timeouts), the queue is compacted in
place so memory and pop costs stay bounded.  The kernel is the single source
of time for every KARYON component.
"""

from __future__ import annotations

import heapq
import math
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Compact the queue once at least this many cancelled events are buried in it
#: (and they outnumber the live ones) — small enough to bound waste, large
#: enough that compaction cost is amortised over many cancellations.
_COMPACT_MIN_CANCELLED = 64

#: Per-cell phase accumulator behind ``run --profile``: phase name ->
#: wall seconds (``scenario.build``, ``scenario.sim``).  ``None`` unless
#: :func:`repro.experiments.runner.execute_run` installs a fresh dict for
#: the one cell it is profiling; ``--profile`` runs cells in-process and
#: one at a time, so no lock is needed.
PHASES: Optional[Dict[str, float]] = None


class SimulationError(RuntimeError):
    """Raised for scheduling misuse (negative delays, running a stopped sim)."""


class _Event:
    """Heap payload: callback plus cancelled/executed state.

    Ordering lives in the enclosing ``(time, priority, seq, event)`` tuple,
    never here — ``seq`` is unique so comparisons stop before the payload.
    """

    __slots__ = ("time", "callback", "cancelled", "executed")

    def __init__(self, time: float, callback: Callable[[], None]):
        self.time = time
        self.callback = callback
        self.cancelled = False
        self.executed = False


class Timer:
    """Handle to a scheduled event that can be cancelled or queried."""

    __slots__ = ("_event", "_simulator")

    def __init__(self, event: _Event, simulator: "Simulator"):
        self._event = event
        self._simulator = simulator

    @property
    def time(self) -> float:
        """Absolute simulated time at which the timer fires."""
        return self._event.time

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    @property
    def fired(self) -> bool:
        """Whether the callback actually ran.

        Tracked as an explicit executed flag on the event: a timer cancelled
        *after* it fired keeps reporting ``fired=True`` (cancelling an
        already-fired timer is a no-op), and a timer scheduled at the current
        instant does not count as fired until its callback has run.
        """
        return self._event.executed

    def cancel(self) -> None:
        """Cancel the timer.  Cancelling an already-fired timer is a no-op."""
        self._simulator._cancel(self._event)


class PeriodicTask:
    """A task re-scheduled every ``period`` until stopped.

    The KARYON safety manager, heartbeat senders and sensor sampling loops are
    all periodic tasks.  The task keeps jitter bookkeeping so experiments can
    assert bounded-cycle behaviour.
    """

    def __init__(
        self,
        simulator: "Simulator",
        period: float,
        callback: Callable[[], None],
        name: str = "periodic",
        jitter_fn: Optional[Callable[[], float]] = None,
        priority: int = 0,
    ):
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period}")
        self.simulator = simulator
        self.period = period
        self.callback = callback
        self.name = name
        self.jitter_fn = jitter_fn
        self.priority = priority
        self.running = False
        self.invocations = 0
        self.last_fire_time: Optional[float] = None
        self.max_observed_interval = 0.0
        #: The pending re-arm; kept as the bare event (no :class:`Timer`
        #: handle per fire), cancelled through the simulator on :meth:`stop`.
        self._event: Optional[_Event] = None

    def start(self, initial_delay: float = 0.0) -> None:
        if self.running:
            return
        self.running = True
        self._schedule(initial_delay)

    def stop(self) -> None:
        self.running = False
        if self._event is not None:
            self.simulator._cancel(self._event)
            self._event = None

    def _schedule(self, delay: float) -> None:
        jitter = self.jitter_fn() if self.jitter_fn else 0.0
        delay = max(0.0, delay + jitter)
        if not math.isfinite(delay):
            raise SimulationError(f"delay must be finite, got {delay}")
        # Inlined simulator.schedule(): the clamp above already guarantees a
        # valid delay, and periodic re-arms are hot enough that skipping the
        # extra call and negative-delay check matters.
        simulator = self.simulator
        event = _Event(simulator._now + delay, self._fire)
        heapq.heappush(
            simulator._queue, (event.time, self.priority, simulator._seq, event)
        )
        simulator._seq += 1
        simulator._pending += 1
        self._event = event

    def _fire(self) -> None:
        if not self.running:
            return
        now = self.simulator.now
        if self.last_fire_time is not None:
            interval = now - self.last_fire_time
            if interval > self.max_observed_interval:
                self.max_observed_interval = interval
        self.last_fire_time = now
        self.invocations += 1
        self.callback()
        if self.running:
            self._schedule(self.period)


class Simulator:
    """Deterministic discrete-event simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.0, lambda: fired.append(sim.now))
    >>> sim.run_until(2.0)
    >>> fired
    [1.0]
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        # Entries: (time, priority, seq, event) for cancellable events, or
        # (time, priority, seq, None, callback) for fire-and-forget ones.
        # ``seq`` is unique, so comparisons never reach the payload.
        self._queue: List[Tuple] = []
        self._seq = 0
        self._stopped = False
        self._pending = 0  # live (non-cancelled, non-executed) events in the queue
        self._cancelled = 0  # cancelled events still buried in the queue
        self.events_processed = 0
        # Profiling anchors (wall-clock-free): the gap between construction
        # and the first run_until is the scenario's build phase.
        self._created_at = perf_counter()
        self._build_span_recorded = False

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def schedule(
        self, delay: float, callback: Callable[[], None], priority: int = 0
    ) -> Timer:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        if not math.isfinite(delay):
            raise SimulationError(f"delay must be finite, got {delay}")
        time = self._now + delay
        event = _Event(time, callback)
        heapq.heappush(self._queue, (time, priority, self._seq, event))
        self._seq += 1
        self._pending += 1
        return Timer(event, self)

    def schedule_fast(
        self, delay: float, callback: Callable[[], None], priority: int = 0
    ) -> None:
        """Fire-and-forget :meth:`schedule`: no :class:`Timer`, no validation.

        For hot paths that never cancel nor query the event (frame completion,
        message delivery).  The entry shares the ``(time, priority, seq, ...)``
        ordering of regular events, so interleaving with :meth:`schedule` is
        identical; the caller is responsible for a non-negative, finite delay.
        """
        heapq.heappush(
            self._queue, (self._now + delay, priority, self._seq, None, callback)
        )
        self._seq += 1
        self._pending += 1

    def schedule_at_fast(
        self, time: float, callback: Callable[[], None], priority: int = 0
    ) -> None:
        """Fire-and-forget :meth:`schedule_at` (see :meth:`schedule_fast`)."""
        heapq.heappush(self._queue, (time, priority, self._seq, None, callback))
        self._seq += 1
        self._pending += 1

    def schedule_at(
        self, time: float, callback: Callable[[], None], priority: int = 0
    ) -> Timer:
        """Schedule ``callback`` at an absolute simulated time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time}, current time is {self._now}"
            )
        event = _Event(time, callback)
        heapq.heappush(self._queue, (time, priority, self._seq, event))
        self._seq += 1
        self._pending += 1
        return Timer(event, self)

    def periodic(
        self,
        period: float,
        callback: Callable[[], None],
        name: str = "periodic",
        initial_delay: float = 0.0,
        jitter_fn: Optional[Callable[[], float]] = None,
        priority: int = 0,
    ) -> PeriodicTask:
        """Create and start a :class:`PeriodicTask`."""
        task = PeriodicTask(
            self, period, callback, name=name, jitter_fn=jitter_fn, priority=priority
        )
        task.start(initial_delay)
        return task

    def stop(self) -> None:
        """Stop the current :meth:`run_until` / :meth:`run` loop."""
        self._stopped = True

    def peek(self) -> Optional[float]:
        """Time of the next pending (non-cancelled) event, or ``None``."""
        queue = self._queue
        while queue:
            event = queue[0][3]
            if event is None or not event.cancelled:
                return queue[0][0]
            heapq.heappop(queue)
            self._cancelled -= 1
        return None

    def step(self) -> bool:
        """Process the next event.  Returns ``False`` when the queue is empty."""
        queue = self._queue
        while queue:
            entry = heapq.heappop(queue)
            event = entry[3]
            if event is None:
                self._now = entry[0]
                self._pending -= 1
                self.events_processed += 1
                entry[4]()
                return True
            if event.cancelled:
                self._cancelled -= 1
                continue
            self._now = entry[0]
            self._pending -= 1
            event.executed = True
            self.events_processed += 1
            event.callback()
            return True
        return False

    def run_until(self, end_time: float) -> None:
        """Run events until simulated time reaches ``end_time``.

        The clock is advanced to exactly ``end_time`` even if no event is
        pending there, so back-to-back ``run_until`` calls behave like a
        continuous timeline.
        """
        # Profiling wraps the *outer* call only — the per-event hot loop is
        # untouched, and without an accumulator this costs one global read.
        phases = PHASES
        if phases is None:
            self._run_until(end_time)
            return
        started = perf_counter()
        if not self._build_span_recorded:
            self._build_span_recorded = True
            phases["scenario.build"] = (
                phases.get("scenario.build", 0.0) + started - self._created_at
            )
        try:
            self._run_until(end_time)
        finally:
            phases["scenario.sim"] = phases.get("scenario.sim", 0.0) + perf_counter() - started

    def _run_until(self, end_time: float) -> None:
        if end_time < self._now:
            raise SimulationError(
                f"end_time {end_time} is before current time {self._now}"
            )
        self._stopped = False
        # Hot loop: operate on the head entry directly instead of the
        # peek()/step() pair so each event costs one heap pop, not a scan
        # plus a pop.  ``queue`` stays a valid alias because compaction
        # mutates the list in place.
        queue = self._queue
        pop = heapq.heappop
        while queue and not self._stopped:
            head = queue[0]
            event = head[3]
            if event is None:
                time = head[0]
                if time > end_time:
                    break
                pop(queue)
                self._now = time
                self._pending -= 1
                self.events_processed += 1
                head[4]()
                continue
            if event.cancelled:
                pop(queue)
                self._cancelled -= 1
                continue
            time = head[0]
            if time > end_time:
                break
            pop(queue)
            self._now = time
            self._pending -= 1
            event.executed = True
            self.events_processed += 1
            event.callback()
        if not self._stopped:
            self._now = max(self._now, end_time)

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until the event queue drains (or ``max_events`` is reached)."""
        self._stopped = False
        count = 0
        while not self._stopped and self.step():
            count += 1
            if max_events is not None and count >= max_events:
                break

    def pending_events(self) -> int:
        """Number of scheduled, non-cancelled events (O(1): a live counter)."""
        return self._pending

    # ------------------------------------------------------------- internals
    def _cancel(self, event: _Event) -> None:
        """Flag ``event`` as cancelled; physical removal happens lazily."""
        if event.cancelled or event.executed:
            return
        event.cancelled = True
        self._pending -= 1
        self._cancelled += 1
        if self._cancelled >= _COMPACT_MIN_CANCELLED and self._cancelled > self._pending:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, keeping the same list object."""
        self._queue[:] = [
            entry for entry in self._queue if entry[3] is None or not entry[3].cancelled
        ]
        heapq.heapify(self._queue)
        self._cancelled = 0
