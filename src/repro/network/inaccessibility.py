"""Network inaccessibility: modelling, detection and bounding.

Section V-A.1: "Disturbances induced in the operation of MAC protocols may
create temporary partitions in the network ... These temporary network
partitions are called periods of network inaccessibility.  Since the periods
of network inaccessibility may have durations much higher than the normal
worst case network access delay, inaccessibility incidents do represent a
source of unpredictability."

:class:`InaccessibilityMonitor` observes channel activity (successful
receptions and transmissions) and declares an inaccessibility period when the
channel has been silent — while traffic was expected — for longer than a
detection threshold.  :class:`InaccessibilityController` bounds the duration
of such periods by triggering a recovery action (typically a channel switch
performed by the R2T-MAC Channel Control Layer).  A controller has no task
of its own: it registers with its monitor and polls at the end of each of
the monitor's checks, so one periodic event per node covers both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.sim.kernel import Simulator


@dataclass
class InaccessibilityPeriod:
    """One detected period of network inaccessibility."""

    start: float
    end: Optional[float] = None
    recovered_by_controller: bool = False

    @property
    def closed(self) -> bool:
        return self.end is not None

    def duration(self, now: Optional[float] = None) -> float:
        if self.end is not None:
            return self.end - self.start
        if now is None:
            raise ValueError("open period needs `now` to compute its duration")
        return now - self.start


class InaccessibilityMonitor:
    """Detects inaccessibility periods from observed channel activity."""

    def __init__(
        self,
        simulator: Simulator,
        detection_threshold: float = 0.2,
        check_period: float = 0.05,
        expected_activity_period: Optional[float] = None,
    ):
        if detection_threshold <= 0:
            raise ValueError("detection_threshold must be positive")
        self.simulator = simulator
        self.detection_threshold = detection_threshold
        self.expected_activity_period = expected_activity_period or detection_threshold
        self.periods: List[InaccessibilityPeriod] = []
        self._last_activity = simulator.now
        self._open: Optional[InaccessibilityPeriod] = None
        self._listeners: List[Callable[[InaccessibilityPeriod], None]] = []
        #: Controllers polled at the end of every check; replaced, never
        #: mutated, so a controller stopping mid-check cannot skip another.
        self._controllers: List["InaccessibilityController"] = []
        self._task = simulator.periodic(check_period, self._check, name="inaccessibility-monitor")

    # ------------------------------------------------------------------ inputs
    def activity(self, time: Optional[float] = None) -> None:
        """Report successful channel activity (reception or own transmission)."""
        time = self.simulator.now if time is None else time
        self._last_activity = time
        if self._open is not None:
            self._open.end = time
            self._open = None

    def on_period_detected(self, listener: Callable[[InaccessibilityPeriod], None]) -> None:
        """Register a callback fired once when a new period is detected."""
        self._listeners.append(listener)

    def stop(self) -> None:
        self._task.stop()

    # ------------------------------------------------------------------ queries
    @property
    def currently_inaccessible(self) -> bool:
        return self._open is not None

    @property
    def current_period(self) -> Optional[InaccessibilityPeriod]:
        return self._open

    def closed_periods(self) -> List[InaccessibilityPeriod]:
        return [p for p in self.periods if p.closed]

    def max_duration(self) -> float:
        """Longest observed inaccessibility (open periods measured up to now)."""
        if not self.periods:
            return 0.0
        return max(p.duration(self.simulator.now) for p in self.periods)

    def total_duration(self) -> float:
        return sum(p.duration(self.simulator.now) for p in self.periods)

    # ---------------------------------------------------------------- internals
    def _check(self) -> None:
        now = self.simulator.now
        silent_for = now - self._last_activity
        if self._open is None and silent_for > self.detection_threshold:
            period = InaccessibilityPeriod(start=self._last_activity + self.detection_threshold)
            self._open = period
            self.periods.append(period)
            for listener in self._listeners:
                listener(period)
        for controller in self._controllers:
            controller._check()


class InaccessibilityController:
    """Bounds inaccessibility durations by triggering a recovery action.

    The controller polls the monitor; when an open period exceeds
    ``bound`` seconds it invokes ``recovery_action`` (e.g. the Channel
    Control Layer's channel switch) and marks the period as recovered.  The
    achieved bound — the maximum closed-period duration — is the quantity the
    E3 experiment compares against the unbounded baseline.

    The controller has no period of its own: it polls at the end of each of
    its monitor's checks, at the monitor's ``check_period``, and stops
    polling when the monitor stops.  That is order-equivalent to a periodic
    task of the controller's own, started right after the monitor's at the
    same instant with the same period and no jitter, as a controller built
    beside its monitor in :class:`~repro.network.r2t_mac.MediatorLayer`
    (the only place the package builds one) would start it: each of that
    task's events would sit at the time of a monitor event, with the next
    ``seq`` at the same priority, so nothing already queued could run
    between the two.
    The equivalence rests on two facts about the callers in ``src/``.
    Nothing registers :meth:`InaccessibilityMonitor.on_period_detected` (a
    listener could schedule an event with a negative priority, which would
    run before a separate controller event, or stop the simulator between
    the two).  The recovery action schedules no event
    (``ChannelControlLayer.recover`` then ``monitor.activity``), so it
    cannot take a ``seq`` ahead of the monitor's re-arm that a separate
    event would have taken after it.  Only the simulator's event counts
    differ: one event fewer processed per controller check, one fewer
    pending per controller.
    """

    def __init__(
        self,
        simulator: Simulator,
        monitor: InaccessibilityMonitor,
        recovery_action: Callable[[], None],
        bound: float = 0.5,
    ):
        if bound <= 0:
            raise ValueError("bound must be positive")
        self.simulator = simulator
        self.monitor = monitor
        self.recovery_action = recovery_action
        self.bound = bound
        self.recoveries = 0
        monitor._controllers = monitor._controllers + [self]

    def stop(self) -> None:
        self.monitor._controllers = [
            controller for controller in self.monitor._controllers if controller is not self
        ]

    def _check(self) -> None:
        period = self.monitor.current_period
        if period is None:
            return
        if period.duration(self.simulator.now) >= self.bound and not period.recovered_by_controller:
            period.recovered_by_controller = True
            self.recoveries += 1
            self.recovery_action()
