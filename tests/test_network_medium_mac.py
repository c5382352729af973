"""Tests for the wireless medium, frames, clocks and the CSMA MAC."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.clocks import DriftingClock
from repro.network.frames import Frame, FrameKind
from repro.network.mac_csma import CsmaConfig, CsmaMacNode
from repro.network.medium import (
    _DRAW_CHUNK,
    _PRUNE_INTERVAL,
    InterferenceBurst,
    MediumConfig,
    WirelessMedium,
)
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

    @pytest.mark.parametrize("channel", [7, 3, -1])
    def test_attach_rejects_a_listening_channel_out_of_range(self, channel):
        medium = make_medium(Simulator(), channels=3)
        with pytest.raises(ValueError, match="out of range"):
            medium.attach("a", lambda f, t: None, listening_channel=channel)
        assert medium.attached_nodes() == []

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


class TestConfigValidation:
    """Configs that would schedule into the past, or poison the event heap
    with NaN times, are rejected when they are built."""

    @pytest.mark.parametrize("delay", [-1e-3, math.nan, math.inf])
    def test_medium_rejects_bad_propagation_delay(self, delay):
        with pytest.raises(ValueError, match="propagation delay"):
            MediumConfig(propagation_delay=delay)

    @pytest.mark.parametrize("comm_range", [0.0, -5.0, math.nan])
    def test_medium_rejects_bad_communication_range(self, comm_range):
        with pytest.raises(ValueError, match="communication range"):
            MediumConfig(communication_range=comm_range)

    def test_medium_accepts_an_infinite_range(self):
        sim = Simulator()
        medium = make_medium(sim, comm_range=math.inf)
        received = []
        medium.attach("a", lambda f, t: None)
        medium.attach("b", lambda f, t: received.append(f), position_fn=lambda: (1e12, 0.0))
        medium.transmit(Frame(source="a"))
        sim.run_until(0.1)
        assert len(received) == 1

    @pytest.mark.parametrize("bitrate", [0.0, math.nan])
    def test_medium_rejects_bad_bitrate(self, bitrate):
        with pytest.raises(ValueError, match="bitrate"):
            MediumConfig(bitrate_bps=bitrate)

    @pytest.mark.parametrize("slot_time", [0.0, -1e-6, math.nan, math.inf])
    def test_csma_rejects_bad_slot_time(self, slot_time):
        with pytest.raises(ValueError, match="slot_time"):
            CsmaConfig(slot_time=slot_time)

    def test_csma_rejects_negative_min_backoff_slots(self):
        with pytest.raises(ValueError, match="min_backoff_slots"):
            CsmaConfig(min_backoff_slots=-3)


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


class _ScalarMedium(WirelessMedium):
    """Reference medium: carrier sense scans every listed frame, a completion
    visits every attachment and re-checks its channel, and each loss draw is
    one scalar ``rng.random()`` call."""

    def is_busy(self, node_id, channel):
        now = self.simulator.now
        for tx in self._on_air[channel]:
            if tx.sender != node_id and tx.start <= now < tx.end:
                listener = self._attachments[node_id].position_fn()
                if self._distance(listener, tx.sender_position) <= self.config.communication_range:
                    return True
        return False

    def _complete(self, tx):
        now = self.simulator.now
        config = self.config
        reach = config.communication_range
        base_loss = config.base_loss_probability
        overlapping = [
            other.sender_position
            for other in self._on_air[tx.channel]
            if other is not tx and other.start < tx.end and other.end > tx.start
        ]
        if tx.frame.is_broadcast:
            candidates = [a for a in self._attachments.values() if a.node_id != tx.sender]
        else:
            target = self._attachments.get(tx.frame.destination)
            candidates = [] if target is None else [target]
        interference = self.interference_loss_probability(tx.channel, tx.start)
        receivers = []
        for attachment in candidates:
            if attachment.listening_channel != tx.channel:
                continue
            position = attachment.position_fn()
            if self._distance(position, tx.sender_position) > reach:
                self.stats.lost_out_of_range += 1
            elif any(self._distance(position, other) <= reach for other in overlapping):
                self.stats.lost_collision += 1
            elif interference > 0 and self.rng.random() < interference:
                self.stats.lost_interference += 1
            elif base_loss > 0 and self.rng.random() < base_loss:
                self.stats.lost_random += 1
            else:
                receivers.append(attachment.receive)
        if receivers:
            self.stats.deliveries += len(receivers)
            time = now + config.propagation_delay
            frame = tx.frame
            self.simulator.schedule_at_fast(
                time, lambda: [receive(frame, time) for receive in receivers]
            )
        self._completions_since_prune += 1
        if self._completions_since_prune >= _PRUNE_INTERVAL:
            self._prune(now)
        if tx.on_end is not None:
            tx.on_end()


def _next_unused_draw(medium):
    """The value the medium's next loss draw would take."""
    if isinstance(medium, _ScalarMedium):
        return medium.rng.random()
    if medium._draw_index < len(medium._draws):
        return medium._draws[medium._draw_index]
    return medium.rng.random()


_TIMES = st.integers(0, 60).map(lambda ms: ms * 1e-3)


@st.composite
def _medium_scripts(draw):
    """A random layout, channel plan, burst set and action script."""
    nodes = draw(st.integers(2, 7))
    channels = draw(st.integers(1, 3))
    layout = [
        (
            draw(st.floats(0.0, 600.0)),
            draw(st.floats(0.0, 600.0)),
            draw(st.floats(-2000.0, 2000.0)),  # x speed, m/s
            draw(st.one_of(st.none(), st.floats(0.0, 200.0))),  # altitude
            draw(st.integers(0, channels - 1)),  # listening channel
        )
        for _ in range(nodes)
    ]
    bursts = draw(
        st.lists(
            st.tuples(
                _TIMES,
                st.floats(1e-3, 0.03),
                st.one_of(st.none(), st.integers(0, channels - 1)),
                st.one_of(st.floats(0.05, 0.95), st.just(1.0)),
            ),
            max_size=3,
        )
    )
    node = st.integers(0, nodes - 1)
    channel = st.integers(0, channels - 1)
    actions = draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("tx"), _TIMES, node, channel,
                    st.one_of(st.none(), node),  # unicast destination
                    st.sampled_from([400, 800, 6000, 30000]),
                    st.one_of(st.none(), node),  # senses the channel at the frame's end
                ),
                st.tuples(st.just("tune"), _TIMES, node, channel),
                st.tuples(st.just("sense"), _TIMES, node, channel),
            ),
            min_size=1,
            max_size=50,
        )
    )
    base_loss = draw(st.sampled_from([0.0, 0.05, 0.4]))
    return channels, layout, bursts, actions, base_loss


def _play(medium_class, script, seed):
    """Run ``script`` on a fresh medium; its log, stats and next draw."""
    channels, layout, bursts, actions, base_loss = script
    sim = Simulator()
    medium = medium_class(
        sim,
        MediumConfig(base_loss_probability=base_loss, channels=channels),
        rng=np.random.default_rng(seed),
    )
    log = []
    for index, (x, y, speed, altitude, listening) in enumerate(layout):
        def position(x=x, y=y, speed=speed, altitude=altitude):
            planar = (x + speed * sim.now, y)
            return planar if altitude is None else planar + (altitude,)

        medium.attach(
            f"n{index}",
            lambda frame, time, index=index: log.append(("rx", index, frame.frame_id, time)),
            position_fn=position,
            listening_channel=listening,
        )
    for start, duration, channel, loss in bursts:
        medium.add_interference(InterferenceBurst(start, duration, channel, loss))

    def act(step, action):
        kind, _time, index, channel = action[:4]
        if kind == "tx":
            _, _, _, _, destination, size_bits, prober = action
            frame = Frame(
                source=f"n{index}",
                destination=None if destination is None else f"n{destination}",
                size_bits=size_bits,
                channel=channel,
                frame_id=step,
            )
            if prober is not None:
                # Runs at the frame's end time, before its completion event.
                end = sim.now + frame.air_time(medium.config.bitrate_bps)
                sim.schedule_at(end, lambda: sense(step, prober, channel))
            medium.transmit(frame, on_end=lambda: log.append(("end", step, sim.now)))
        elif kind == "tune":
            medium.set_listening_channel(f"n{index}", channel)
        else:
            sense(step, index, channel)

    def sense(step, index, channel):
        log.append(("busy", step, sim.now, medium.is_busy(f"n{index}", channel)))

    for step, action in enumerate(actions):
        sim.schedule_at(action[1], lambda step=step, action=action: act(step, action))
    sim.run_until(0.2)
    return log, medium.stats, _next_unused_draw(medium)


class TestMediumMatchesScalarReference:
    """The live lists, channel rows and chunked draws change no outcome."""

    @settings(max_examples=150, deadline=None)
    @given(script=_medium_scripts(), seed=st.integers(0, 2**32 - 1))
    def test_same_deliveries_stats_and_draws_as_the_reference(self, script, seed):
        log, stats, next_draw = _play(WirelessMedium, script, seed)
        reference_log, reference_stats, reference_next_draw = _play(_ScalarMedium, script, seed)
        assert log == reference_log
        assert stats == reference_stats
        # Both consumed the same number of draws.
        assert next_draw == reference_next_draw

    def test_reference_comparison_reaches_every_outcome(self):
        # A fixed dense script: the property above is not vacuous.
        channels, nodes = 2, 6
        layout = [(60.0 * k, 0.0, 0.0, None, k % channels) for k in range(nodes)]
        actions = []
        for k in range(300):
            start, sender, channel = 5e-4 * k, k % nodes, k % channels
            unicast = None if k % 7 else (k + 1) % nodes
            prober = None if k % 3 else (k + 2) % nodes  # senses at the frame's end
            actions.append(("tx", start, sender, channel, unicast, 800, prober))
            if k % 25 == 0:  # a second sender at the same instant: collisions
                actions.append(("tx", start, (k + 3) % nodes, channel, None, 800, None))
            # Senses inside (1e-4 s in) or after (3e-4 s) the 0.13 ms frame.
            sensed = start + (1e-4 if k % 2 else 3e-4)
            actions.append(("sense", sensed, (k + 2) % nodes, channel))
            if k % 40 == 39:
                actions.append(("tune", start, (k + 4) % nodes, (k // 40) % channels))
        bursts = [(0.02, 0.01, None, 0.5)]
        script = (channels, layout, bursts, actions, 0.3)
        log, stats, _ = _play(WirelessMedium, script, 1)
        assert (log, stats) == _play(_ScalarMedium, script, 1)[:2]
        assert min(
            stats.deliveries, stats.lost_random, stats.lost_collision, stats.lost_interference
        ) > 0
        assert {entry[-1] for entry in log if entry[0] == "busy"} == {True, False}
        # More draws than one chunk, so the buffer was refilled mid-run.
        assert stats.lost_random + stats.lost_interference + stats.deliveries > _DRAW_CHUNK

    def test_chunked_draws_are_successive_scalar_draws(self):
        medium = WirelessMedium(Simulator(), rng=np.random.default_rng(42))
        reference = np.random.default_rng(42)
        drawn = medium._refill_draws() + medium._refill_draws()
        assert drawn == [reference.random() for _ in range(2 * _DRAW_CHUNK)]


class _RecordedSlots:
    """Wraps a MAC's slot source and records the backoff slots it yields."""

    def __init__(self, node):
        self.inner = node._slots
        self.low = node.config.min_backoff_slots
        self.slots = []

    def below(self, n):
        value = self.inner.below(n)
        self.slots.append(self.low + value)
        return value


class _ScalarBackoffCsma(CsmaMacNode):
    """Reference MAC: one scalar ``integers`` call and one closure per backoff."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.slots = []

    def _attempt(self, attempt):
        config = self.config
        if (
            self._queue
            and attempt <= config.max_attempts
            and self.medium.is_busy(self.node_id, self.channel)
        ):
            self.stats.backoffs += 1
            slots = int(
                self.rng.integers(
                    config.min_backoff_slots,
                    min(config.max_backoff_slots, 2 ** attempt) + 1,
                )
            )
            self.slots.append(slots)
            self.simulator.schedule_fast(
                slots * config.slot_time, lambda: self._attempt(attempt + 1)
            )
            return
        super()._attempt(attempt)


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

    def test_backoff_slots_match_scalar_integers_draws(self):
        def contend(mac_class):
            sim = Simulator()
            medium = make_medium(sim)
            nodes = [
                mac_class(name, sim, medium, rng=np.random.default_rng(seed),
                          config=CsmaConfig(max_attempts=30))
                for seed, name in enumerate("abc", start=11)
            ]
            if mac_class is CsmaMacNode:
                for node in nodes:
                    node._slots = _RecordedSlots(node)
            received = []
            nodes[2].on_receive(lambda f, t: received.append((f.payload, t)))
            for index in range(12):
                for node in nodes[:2]:
                    sim.schedule(
                        0.0004 * index,
                        lambda node=node, index=index: node.send(
                            Frame(source=node.node_id, payload=(node.node_id, index),
                                  size_bits=1200)
                        ),
                    )
            sim.run_until(1.0)
            slots = [
                node._slots.slots if mac_class is CsmaMacNode else node.slots
                for node in nodes
            ]
            return slots, received

        slots, received = contend(CsmaMacNode)
        reference_slots, reference_received = contend(_ScalarBackoffCsma)
        assert slots == reference_slots
        assert len(slots[0]) > 5 and len(slots[1]) > 5
        assert received == reference_received

    def test_lone_broadcast_costs_one_completion_and_one_delivery_event(self):
        sim = Simulator()
        _, a, b = self._pair(sim)
        received = []
        b.on_receive(lambda f, t: received.append(t))
        a.send(Frame(source="a"))
        sim.run_until(0.1)
        assert len(received) == 1
        assert sim.events_processed == 2

    def test_next_queued_frame_starts_at_the_previous_frames_end(self):
        sim = Simulator()
        medium, a, _ = self._pair(sim)
        starts, ends = [], []
        transmit = medium.transmit

        def recording_transmit(frame, **kwargs):
            starts.append(sim.now)
            ends.append(transmit(frame, **kwargs))
            return ends[-1]

        medium.transmit = recording_transmit
        sim.run_until(0.5)  # later than the air time, as in any real run
        for payload in range(3):
            a.send(Frame(source="a", payload=payload, size_bits=1234))
        sim.run_until(1.0)
        assert len(starts) == 3
        assert starts[1:] == ends[:-1]

    def test_contention_window_below_min_backoff_slots_draws_the_floor(self):
        # The window top min(max_backoff_slots, 2 ** attempt) starts at 2,
        # below a floor of 4: the draw used to be integers(4, 3) and raise.
        sim = Simulator()
        medium = make_medium(sim)
        config = CsmaConfig(min_backoff_slots=4, max_attempts=30)
        a = CsmaMacNode("a", sim, medium, config=config, rng=np.random.default_rng(1))
        b = CsmaMacNode("b", sim, medium, config=config, rng=np.random.default_rng(2))
        a._slots = _RecordedSlots(a)
        b.send(Frame(source="b", size_bits=60000))
        sim.run_until(0.001)
        assert a.send(Frame(source="a", size_bits=800))
        sim.run_until(0.2)
        assert a.stats.backoffs > 0
        assert a.stats.transmitted == 1
        assert a._slots.slots[:2] == [4, 4]
        assert all(slots >= 4 for slots in a._slots.slots)
