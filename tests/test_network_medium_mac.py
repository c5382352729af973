"""Tests for the wireless medium, frames, clocks and the CSMA MAC."""

import numpy as np
import pytest

from repro.network.clocks import DriftingClock
from repro.network.frames import Frame, FrameKind
from repro.network.mac_csma import CsmaConfig, CsmaMacNode
from repro.network.medium import InterferenceBurst, MediumConfig, WirelessMedium
from repro.sim.kernel import Simulator


def make_medium(sim, loss=0.0, channels=3, comm_range=300.0):
    return WirelessMedium(
        sim,
        MediumConfig(base_loss_probability=loss, channels=channels, communication_range=comm_range),
        rng=np.random.default_rng(0),
    )


class TestFrame:
    def test_air_time(self):
        frame = Frame(source="a", size_bits=6000)
        assert frame.air_time(6_000_000) == pytest.approx(0.001)

    def test_deadline_miss(self):
        frame = Frame(source="a", deadline=1.0)
        assert not frame.missed_deadline(0.9)
        assert frame.missed_deadline(1.1)

    def test_no_deadline_never_missed(self):
        assert not Frame(source="a").missed_deadline(1e9)

    def test_retransmission_copy_keeps_identity(self):
        frame = Frame(source="a", payload="x", deadline=1.0)
        copy = frame.copy_for_retransmission()
        assert copy.frame_id == frame.frame_id
        assert copy.retransmission == 1
        assert copy.payload == "x"

    def test_broadcast_flag(self):
        assert Frame(source="a").is_broadcast
        assert not Frame(source="a", destination="b").is_broadcast


class TestDriftingClock:
    def test_zero_drift_tracks_reference(self):
        clock = DriftingClock(drift_ppm=0.0)
        assert clock.local_time(100.0) == pytest.approx(100.0)

    def test_positive_drift_gains_time(self):
        clock = DriftingClock(drift_ppm=100.0)
        assert clock.local_time(1000.0) == pytest.approx(1000.1)

    def test_adjust_steps_clock(self):
        clock = DriftingClock()
        clock.adjust(0.5)
        assert clock.local_time(0.0) == pytest.approx(0.5)
        assert clock.adjustments == 1

    def test_reference_time_inverse(self):
        clock = DriftingClock(drift_ppm=50.0, offset=0.3)
        local = clock.local_time(123.0)
        assert clock.reference_time(local) == pytest.approx(123.0)

    def test_offset_between_clocks(self):
        a = DriftingClock(offset=0.2)
        b = DriftingClock(offset=0.1)
        assert a.offset_to(b, 0.0) == pytest.approx(0.1)


class TestWirelessMedium:
    def test_broadcast_reaches_nodes_in_range(self):
        sim = Simulator()
        medium = make_medium(sim)
        received = {"b": [], "c": []}
        medium.attach("a", lambda f, t: None, position_fn=lambda: (0.0, 0.0))
        medium.attach("b", lambda f, t: received["b"].append(f), position_fn=lambda: (100.0, 0.0))
        medium.attach("c", lambda f, t: received["c"].append(f), position_fn=lambda: (1000.0, 0.0))
        medium.transmit(Frame(source="a"))
        sim.run_until(0.1)
        assert len(received["b"]) == 1
        assert len(received["c"]) == 0  # out of range

    def test_unicast_only_reaches_destination(self):
        sim = Simulator()
        medium = make_medium(sim)
        received = {"b": [], "c": []}
        medium.attach("a", lambda f, t: None)
        medium.attach("b", lambda f, t: received["b"].append(f))
        medium.attach("c", lambda f, t: received["c"].append(f))
        medium.transmit(Frame(source="a", destination="b"))
        sim.run_until(0.1)
        assert len(received["b"]) == 1
        assert len(received["c"]) == 0

    def test_overlapping_transmissions_collide(self):
        sim = Simulator()
        medium = make_medium(sim)
        received = []
        medium.attach("a", lambda f, t: None, position_fn=lambda: (0.0, 0.0))
        medium.attach("b", lambda f, t: None, position_fn=lambda: (10.0, 0.0))
        medium.attach("c", lambda f, t: received.append(f), position_fn=lambda: (5.0, 0.0))
        medium.transmit(Frame(source="a", size_bits=8000))
        medium.transmit(Frame(source="b", size_bits=8000))
        sim.run_until(0.1)
        assert received == []
        assert medium.stats.lost_collision >= 1

    def test_interference_burst_blocks_delivery(self):
        sim = Simulator()
        medium = make_medium(sim)
        medium.add_interference(InterferenceBurst(start=0.0, duration=1.0, loss_probability=1.0))
        received = []
        medium.attach("a", lambda f, t: None)
        medium.attach("b", lambda f, t: received.append(f))
        medium.transmit(Frame(source="a"))
        sim.run_until(0.1)
        assert received == []
        assert medium.stats.lost_interference == 1

    def test_interference_on_other_channel_does_not_block(self):
        sim = Simulator()
        medium = make_medium(sim)
        medium.add_interference(InterferenceBurst(start=0.0, duration=1.0, channel=1))
        received = []
        medium.attach("a", lambda f, t: None)
        medium.attach("b", lambda f, t: received.append(f))
        medium.transmit(Frame(source="a", channel=0))
        sim.run_until(0.1)
        assert len(received) == 1

    def test_receiver_on_other_channel_does_not_hear(self):
        sim = Simulator()
        medium = make_medium(sim)
        received = []
        medium.attach("a", lambda f, t: None)
        medium.attach("b", lambda f, t: received.append(f), listening_channel=2)
        medium.transmit(Frame(source="a", channel=0))
        sim.run_until(0.1)
        assert received == []

    def test_is_busy_during_transmission(self):
        sim = Simulator()
        medium = make_medium(sim)
        medium.attach("a", lambda f, t: None, position_fn=lambda: (0.0, 0.0))
        medium.attach("b", lambda f, t: None, position_fn=lambda: (10.0, 0.0))
        medium.transmit(Frame(source="a", size_bits=60000))
        assert medium.is_busy("b", 0)
        sim.run_until(1.0)
        assert not medium.is_busy("b", 0)

    def test_neighbors_reflect_positions(self):
        sim = Simulator()
        medium = make_medium(sim, comm_range=50.0)
        medium.attach("a", lambda f, t: None, position_fn=lambda: (0.0, 0.0))
        medium.attach("b", lambda f, t: None, position_fn=lambda: (30.0, 0.0))
        medium.attach("c", lambda f, t: None, position_fn=lambda: (100.0, 0.0))
        assert medium.neighbors("a") == ["b"]

    def test_duplicate_attach_rejected(self):
        medium = make_medium(Simulator())
        medium.attach("a", lambda f, t: None)
        with pytest.raises(ValueError):
            medium.attach("a", lambda f, t: None)

    def test_unknown_sender_rejected(self):
        medium = make_medium(Simulator())
        with pytest.raises(ValueError):
            medium.transmit(Frame(source="ghost"))

    def test_invalid_channel_rejected(self):
        medium = make_medium(Simulator())
        medium.attach("a", lambda f, t: None)
        with pytest.raises(ValueError):
            medium.transmit(Frame(source="a", channel=99))

    def test_random_loss_probability(self):
        sim = Simulator()
        medium = make_medium(sim, loss=0.5)
        received = []
        medium.attach("a", lambda f, t: None)
        medium.attach("b", lambda f, t: received.append(f))
        for _ in range(200):
            medium.transmit(Frame(source="a"))
            sim.run_until(sim.now + 0.01)
        assert 20 < len(received) < 180


class TestBatchedDelivery:
    """One delivery event per frame must order exactly like one per receiver."""

    def test_zero_delay_event_from_a_receiver_runs_after_every_receiver(self):
        sim = Simulator()
        medium = make_medium(sim)
        order = []

        def first_receiver(frame, time):
            order.append("b")
            sim.schedule(0.0, lambda: order.append("scheduled by b"))

        medium.attach("a", lambda f, t: None)
        medium.attach("b", first_receiver)
        medium.attach("c", lambda f, t: order.append("c"))
        medium.attach("d", lambda f, t: order.append("d"))
        medium.transmit(Frame(source="a"))
        sim.run_until(0.1)
        assert order == ["b", "c", "d", "scheduled by b"]

    def test_frames_completing_together_deliver_in_transmit_order(self):
        sim = Simulator()
        medium = make_medium(sim)
        order = []
        # Two senders 1 km apart, each heard only by its own two receivers;
        # attachment order interleaves the receivers of the two frames.
        medium.attach("far", lambda f, t: None, position_fn=lambda: (1000.0, 0.0))
        medium.attach("near", lambda f, t: None, position_fn=lambda: (0.0, 0.0))
        for name, x in (("far-1", 1010.0), ("near-1", 10.0), ("far-2", 1020.0), ("near-2", 20.0)):
            medium.attach(name, lambda f, t, n=name: order.append(n), position_fn=lambda x=x: (x, 0.0))
        medium.transmit(Frame(source="near", size_bits=800))
        medium.transmit(Frame(source="far", size_bits=800))
        sim.run_until(0.1)
        assert order == ["near-1", "near-2", "far-1", "far-2"]
        assert medium.stats.lost_collision == 0

    def test_retuning_inside_a_callback_keeps_the_frames_recipients(self):
        sim = Simulator()
        medium = make_medium(sim)
        received = []

        def retuning_receiver(frame, time):
            received.append(("b", frame.payload))
            medium.set_listening_channel("c", 2)

        medium.attach("a", lambda f, t: None)
        medium.attach("b", retuning_receiver)
        medium.attach("c", lambda f, t: received.append(("c", f.payload)))
        medium.transmit(Frame(source="a", payload=1))
        sim.run_until(0.1)
        medium.transmit(Frame(source="a", payload=2))
        sim.run_until(0.2)
        # c was retuned after the recipients of frame 1 were decided.
        assert received == [("b", 1), ("c", 1), ("b", 2)]

    def test_other_channel_never_makes_a_channel_busy_across_prunes(self):
        sim = Simulator()
        medium = make_medium(sim)
        medium.attach("a", lambda f, t: None, position_fn=lambda: (0.0, 0.0))
        medium.attach("b", lambda f, t: None, position_fn=lambda: (10.0, 0.0))
        medium.attach("c", lambda f, t: None, position_fn=lambda: (20.0, 0.0))
        medium.transmit(Frame(source="a", size_bits=600_000, channel=1))  # 0.1 s on air
        assert medium.is_busy("b", 1)
        assert not medium.is_busy("b", 0)
        # Enough short completions on channel 2 to retire finished frames.
        for index in range(8):
            sim.schedule(0.001 * index, lambda: medium.transmit(Frame(source="c", channel=2)))
        sim.run_until(0.05)
        assert medium._completions_since_prune == 0  # a prune ran
        assert medium.is_busy("b", 1)
        assert not medium.is_busy("b", 0)
        sim.run_until(0.2)
        assert not medium.is_busy("b", 1)
        assert not medium.is_busy("b", 0)


class TestCsmaMac:
    def _pair(self, sim, loss=0.0):
        medium = make_medium(sim, loss=loss)
        a = CsmaMacNode("a", sim, medium, rng=np.random.default_rng(1))
        b = CsmaMacNode("b", sim, medium, rng=np.random.default_rng(2))
        return medium, a, b

    def test_send_and_receive(self):
        sim = Simulator()
        _, a, b = self._pair(sim)
        received = []
        b.on_receive(lambda f, t: received.append(f.payload))
        a.send(Frame(source="a", payload="hello"))
        sim.run_until(0.1)
        assert received == ["hello"]

    def test_queue_overflow_drops(self):
        sim = Simulator()
        medium = make_medium(sim)
        node = CsmaMacNode("a", sim, medium, config=CsmaConfig(queue_capacity=2),
                           rng=np.random.default_rng(0))
        medium.attach("b", lambda f, t: None)
        results = [node.send(Frame(source="a", size_bits=60000)) for _ in range(5)]
        assert not all(results)
        assert node.stats.dropped_queue_full > 0

    def test_backoff_when_channel_busy(self):
        sim = Simulator()
        medium = make_medium(sim)
        a = CsmaMacNode("a", sim, medium, config=CsmaConfig(max_attempts=30),
                        rng=np.random.default_rng(1))
        b = CsmaMacNode("b", sim, medium, rng=np.random.default_rng(2))
        c = CsmaMacNode("c", sim, medium, rng=np.random.default_rng(3))
        # A long transmission from c keeps the channel busy for ~10 ms.
        c.send(Frame(source="c", size_bits=60000))
        sim.run_until(0.001)
        a.send(Frame(source="a", size_bits=800))
        sim.run_until(0.2)
        assert a.stats.backoffs > 0
        assert a.stats.transmitted == 1

    def test_channel_switch(self):
        sim = Simulator()
        medium, a, b = self._pair(sim)
        a.set_channel(1)
        assert a.channel == 1
        assert medium.listening_channel("a") == 1

    def test_sequential_sends_all_delivered(self):
        sim = Simulator()
        _, a, b = self._pair(sim)
        received = []
        b.on_receive(lambda f, t: received.append(f.payload))
        for i in range(20):
            a.send(Frame(source="a", payload=i))
        sim.run_until(1.0)
        assert received == list(range(20))
