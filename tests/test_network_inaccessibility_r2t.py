"""Tests for inaccessibility monitoring/control and R2T-MAC."""

import numpy as np
import pytest

from repro.network.frames import Frame, FrameKind
from repro.network.inaccessibility import InaccessibilityController, InaccessibilityMonitor
from repro.network.medium import InterferenceBurst, MediumConfig, WirelessMedium
from repro.network.r2t_mac import R2TConfig, R2TMacNode
from repro.sim.kernel import Simulator


class TestInaccessibilityMonitor:
    def test_no_period_while_activity_continues(self):
        sim = Simulator()
        monitor = InaccessibilityMonitor(sim, detection_threshold=0.2)
        sim.periodic(0.1, monitor.activity)
        sim.run_until(2.0)
        monitor.stop()
        assert monitor.periods == []

    def test_silence_opens_period_and_activity_closes_it(self):
        sim = Simulator()
        monitor = InaccessibilityMonitor(sim, detection_threshold=0.2)
        monitor.activity(0.0)
        sim.run_until(1.0)
        assert monitor.currently_inaccessible
        monitor.activity(1.0)
        assert not monitor.currently_inaccessible
        assert len(monitor.closed_periods()) == 1
        assert monitor.closed_periods()[0].duration() == pytest.approx(0.8, abs=0.1)

    def test_listener_notified_once_per_period(self):
        sim = Simulator()
        monitor = InaccessibilityMonitor(sim, detection_threshold=0.2)
        events = []
        monitor.on_period_detected(events.append)
        monitor.activity(0.0)
        sim.run_until(1.0)
        assert len(events) == 1

    def test_max_and_total_duration(self):
        sim = Simulator()
        monitor = InaccessibilityMonitor(sim, detection_threshold=0.1)
        monitor.activity(0.0)
        sim.run_until(0.5)
        monitor.activity(0.5)
        sim.run_until(2.0)
        assert monitor.max_duration() > 0.0
        assert monitor.total_duration() >= monitor.max_duration()


class TestInaccessibilityController:
    def test_recovery_triggered_when_bound_exceeded(self):
        sim = Simulator()
        monitor = InaccessibilityMonitor(sim, detection_threshold=0.1)
        recoveries = []
        InaccessibilityController(sim, monitor, lambda: recoveries.append(sim.now), bound=0.3)
        monitor.activity(0.0)
        sim.run_until(2.0)
        assert len(recoveries) == 1

    def test_no_recovery_while_accessible(self):
        sim = Simulator()
        monitor = InaccessibilityMonitor(sim, detection_threshold=0.5)
        recoveries = []
        InaccessibilityController(sim, monitor, lambda: recoveries.append(sim.now), bound=0.3)
        sim.periodic(0.1, monitor.activity)
        sim.run_until(3.0)
        assert recoveries == []

    def test_controller_polls_inside_its_monitors_tick(self):
        sim = Simulator()
        monitor = InaccessibilityMonitor(sim, detection_threshold=0.1)
        checks = []
        InaccessibilityController(sim, monitor, lambda: None, bound=0.3)._check = (
            lambda: checks.append(sim.now)
        )
        # One pending event (the monitor's tick) covers both.
        assert sim.pending_events() == 1
        sim.run_until(0.22)
        assert sim.events_processed == 5
        assert len(checks) == 5 and checks[0] == 0.0

    def test_stopped_controller_no_longer_recovers(self):
        sim = Simulator()
        monitor = InaccessibilityMonitor(sim, detection_threshold=0.1)
        recoveries = []
        stopped = InaccessibilityController(sim, monitor, lambda: recoveries.append("a"), bound=0.3)
        InaccessibilityController(sim, monitor, lambda: recoveries.append("b"), bound=0.3)
        stopped.stop()
        monitor.activity(0.0)
        sim.run_until(2.0)
        assert recoveries == ["b"]
        assert stopped.recoveries == 0


def build_r2t_pair(sim, channels=3, loss=0.0):
    medium = WirelessMedium(
        sim,
        MediumConfig(base_loss_probability=loss, channels=channels),
        rng=np.random.default_rng(0),
    )
    nodes = [
        R2TMacNode(name, sim, medium, config=R2TConfig(), rng=np.random.default_rng(i))
        for i, name in enumerate(["a", "b"])
    ]
    return medium, nodes


class TestR2TMac:
    def test_membership_from_beacons(self):
        sim = Simulator()
        _, (a, b) = build_r2t_pair(sim)
        sim.run_until(1.0)
        assert "b" in a.alive_members()
        assert "a" in b.alive_members()

    def test_membership_expires_when_peer_silent(self):
        sim = Simulator()
        _, (a, b) = build_r2t_pair(sim)
        sim.run_until(1.0)
        b.stop()
        sim.run_until(2.0)
        assert "b" not in a.alive_members()

    def test_data_delivery_and_deduplication(self):
        sim = Simulator()
        _, (a, b) = build_r2t_pair(sim)
        received = []
        b.on_receive(lambda f, t: received.append(f.payload))
        a.send(Frame(source="a", payload="x", kind=FrameKind.SAFETY))
        sim.run_until(1.0)
        # Safety frames are repeated for resilience but must be delivered once.
        assert received == ["x"]

    def test_expired_frames_dropped_at_source(self):
        sim = Simulator()
        _, (a, b) = build_r2t_pair(sim)
        sim.run_until(1.0)
        accepted = a.send(Frame(source="a", payload="late", deadline=0.5))
        assert not accepted
        assert a.mediator.expired_dropped == 1

    def test_channel_switch_on_interference(self):
        sim = Simulator()
        medium, (a, b) = build_r2t_pair(sim)
        # Disturb channel 0 for a long period; the channel control layer
        # should move the nodes away from it.
        medium.add_interference(InterferenceBurst(start=1.0, duration=5.0, channel=0))
        sim.run_until(4.0)
        assert a.current_channel != 0
        assert a.channel_control.switches >= 1

    def test_inaccessibility_bounded_by_recovery(self):
        sim = Simulator()
        medium, (a, b) = build_r2t_pair(sim)
        medium.add_interference(InterferenceBurst(start=1.0, duration=3.0, channel=0))
        sim.run_until(6.0)
        closed = a.inaccessibility.closed_periods()
        assert closed, "an inaccessibility period should have been detected and closed"
        # The achieved bound should be far below the 3 s disturbance because
        # the channel switch restores communication.
        assert max(p.duration() for p in closed) < 1.5
