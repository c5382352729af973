"""Shared wireless medium.

The medium model reproduces the communication uncertainties the paper argues
about (section V-A): probabilistic frame loss, collisions between overlapping
transmissions, and *interference bursts* — externally induced disturbance
periods that are the root cause of network inaccessibility.

Nodes attach with a position supplier (so mobile vehicles change connectivity
as they move) and a receive callback.  MAC protocols (CSMA, R2T-MAC, TDMA)
sit on top of :meth:`WirelessMedium.transmit` and :meth:`WirelessMedium.is_busy`.

Hot-path notes: carrier sensing and delivery resolution run once per frame
per node, so this module is one of the three kernels every campaign funnels
through (with ``Simulator.step`` and ``TraceRecorder.record``).

* Live transmissions are indexed by channel, so carrier sense and the
  overlap scan of a completing frame only read their own channel.  Finished
  transmissions are retired lazily, per channel, every few completions.
* A completing frame decides all its receivers at once and schedules *one*
  delivery event that calls the surviving receive callbacks in attachment
  order.  That is order-equivalent to one event per receiver (see
  :meth:`WirelessMedium._complete`); only ``Simulator.events_processed``
  counts fewer events.
* The same completion event also releases the sender: a MAC passes
  ``on_end`` to :meth:`WirelessMedium.transmit` and :meth:`_complete` calls
  it last, so a frame costs one event at its end, not two (see
  :meth:`WirelessMedium._complete` for why that is order-equivalent).
* The receiver loop evaluates 2-D distances inline, with the sender's and
  the overlapping senders' coordinates hoisted out of the loop, using the
  same ``math.sqrt(dx ** 2 + dy ** 2)`` expression as :meth:`_distance`.
  On a 2-vCPU x86 host it beat a numpy evaluation of the same masks by
  1.8-2.9x at 16, 24 and 48 receivers, so there is no vectorised path.
* Interference bursts are kept sorted by start time and probed with
  :func:`bisect.bisect_right`.
* Random-loss draws come off the RNG stream in attachment order, so every
  delivery outcome is identical to one scalar draw per receiver.  Outside
  interference bursts each receiver left after the geometry checks takes
  exactly one base-loss draw, so they are drawn as one array
  (``Generator.random(k)`` yields the same numbers as ``k`` scalar calls);
  during a burst a second draw depends on the first, so draws stay scalar.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.network.frames import Frame
from repro.sim.kernel import Simulator

#: Retire finished transmissions only every this many completions — keeps the
#: per-channel lists short without an O(n) rebuild per carrier-sense query.
_PRUNE_INTERVAL = 8


@dataclass
class MediumConfig:
    """Static medium parameters."""

    bitrate_bps: float = 6_000_000.0
    communication_range: float = 300.0
    propagation_delay: float = 1e-6
    base_loss_probability: float = 0.01
    channels: int = 3

    def __post_init__(self) -> None:
        # Written as ``not x > 0`` so NaN fails too.
        if not self.bitrate_bps > 0:
            raise ValueError(f"bitrate must be positive, got {self.bitrate_bps}")
        # An infinite range is allowed: every node then hears every other.
        if not self.communication_range > 0:
            raise ValueError(
                f"communication range must be positive, got {self.communication_range}"
            )
        # Delivery is scheduled at ``end + propagation_delay`` unchecked, so
        # a negative or NaN delay would move the clock backwards.
        if not 0.0 <= self.propagation_delay < math.inf:
            raise ValueError(
                f"propagation delay must be finite and >= 0, got {self.propagation_delay}"
            )
        if not 0.0 <= self.base_loss_probability < 1.0:
            raise ValueError("base loss probability must be in [0, 1)")
        if self.channels < 1:
            raise ValueError("at least one channel is required")


@dataclass
class InterferenceBurst:
    """An externally induced disturbance on one channel (or all channels)."""

    start: float
    duration: float
    channel: Optional[int] = None
    loss_probability: float = 1.0

    @property
    def end(self) -> float:
        return self.start + self.duration

    def affects(self, time: float, channel: int) -> bool:
        if not (self.start <= time < self.end):
            return False
        return self.channel is None or self.channel == channel


@dataclass(slots=True)
class _Attachment:
    node_id: str
    receive: Callable[[Frame, float], None]
    position_fn: Callable[[], Tuple[float, ...]]
    listening_channel: int = 0


@dataclass(slots=True)
class _Transmission:
    frame: Frame
    sender: str
    channel: int
    start: float
    end: float
    sender_position: Tuple[float, ...]
    on_end: Optional[Callable[[], None]] = None


@dataclass
class MediumStats:
    """Delivery accounting used by the E3/E5 experiments."""

    frames_sent: int = 0
    deliveries: int = 0
    lost_random: int = 0
    lost_collision: int = 0
    lost_interference: int = 0
    lost_out_of_range: int = 0

    @property
    def delivery_ratio(self) -> float:
        attempts = self.deliveries + self.lost_random + self.lost_collision + self.lost_interference
        if attempts == 0:
            return 1.0
        return self.deliveries / attempts


class WirelessMedium:
    """Broadcast wireless medium shared by all attached nodes."""

    def __init__(
        self,
        simulator: Simulator,
        config: Optional[MediumConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        self.simulator = simulator
        self.config = config or MediumConfig()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._attachments: Dict[str, _Attachment] = {}
        #: Live transmissions, one list per channel, each in start order.
        self._on_air: List[List[_Transmission]] = [[] for _ in range(self.config.channels)]
        self._interference: List[InterferenceBurst] = []
        #: Bursts as (start, insertion#, burst), sorted by start so probes can
        #: bisect instead of scanning every burst ever injected.
        self._bursts_sorted: List[Tuple[float, int, InterferenceBurst]] = []
        self._max_burst_end = -math.inf
        self._completions_since_prune = 0
        #: Largest air time ever transmitted: a finished transmission older
        #: than this can neither overlap a still-pending completion (overlap
        #: needs ``other.end > tx.start = tx.end - air_time``) nor satisfy a
        #: carrier-sense probe, so it is safe to retire.
        self._max_air_time = 0.0
        self.stats = MediumStats()

    # ------------------------------------------------------------------ setup
    def attach(
        self,
        node_id: str,
        receive: Callable[[Frame, float], None],
        position_fn: Optional[Callable[[], Tuple[float, ...]]] = None,
        listening_channel: int = 0,
    ) -> None:
        """Attach a node; ``position_fn`` defaults to a fixed origin position."""
        if node_id in self._attachments:
            raise ValueError(f"node {node_id!r} is already attached")
        if position_fn is None:
            position_fn = lambda: (0.0, 0.0)
        self._attachments[node_id] = _Attachment(
            node_id=node_id,
            receive=receive,
            position_fn=position_fn,
            listening_channel=listening_channel,
        )

    def detach(self, node_id: str) -> None:
        self._attachments.pop(node_id, None)

    def set_listening_channel(self, node_id: str, channel: int) -> None:
        """Retune a node's receiver (used by the Channel Control Layer)."""
        self._check_channel(channel)
        self._attachments[node_id].listening_channel = channel

    def listening_channel(self, node_id: str) -> int:
        return self._attachments[node_id].listening_channel

    def add_interference(self, burst: InterferenceBurst) -> None:
        """Schedule an interference burst (fault injection on the medium)."""
        self._interference.append(burst)
        insort(self._bursts_sorted, (burst.start, len(self._interference), burst))
        if burst.end > self._max_burst_end:
            self._max_burst_end = burst.end

    def attached_nodes(self) -> List[str]:
        return list(self._attachments)

    # --------------------------------------------------------------- geometry
    @staticmethod
    def _distance(a: Tuple[float, ...], b: Tuple[float, ...]) -> float:
        if len(a) == 2 and len(b) == 2:
            return math.sqrt((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2)
        return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))

    def in_range(self, node_a: str, node_b: str) -> bool:
        """Whether two attached nodes are currently within communication range."""
        pos_a = self._attachments[node_a].position_fn()
        pos_b = self._attachments[node_b].position_fn()
        return self._distance(pos_a, pos_b) <= self.config.communication_range

    def neighbors(self, node_id: str) -> List[str]:
        """Nodes currently within range of ``node_id``."""
        return [
            other
            for other in self._attachments
            if other != node_id and self.in_range(node_id, other)
        ]

    # ------------------------------------------------------------ channel state
    def is_busy(self, node_id: str, channel: int, now: Optional[float] = None) -> bool:
        """Carrier sense: is any in-range transmission ongoing on ``channel``?"""
        if not 0 <= channel < self.config.channels:
            self._check_channel(channel)
        transmissions = self._on_air[channel]
        if not transmissions:
            return False
        if now is None:
            now = self.simulator.now
        communication_range = self.config.communication_range
        listener_pos: Optional[Tuple[float, ...]] = None
        for tx in transmissions:
            if tx.sender == node_id:
                continue
            if tx.start <= now < tx.end:
                if listener_pos is None:
                    listener_pos = self._attachments[node_id].position_fn()
                sender_pos = tx.sender_position
                if len(listener_pos) == 2 and len(sender_pos) == 2:
                    distance = math.sqrt(
                        (listener_pos[0] - sender_pos[0]) ** 2
                        + (listener_pos[1] - sender_pos[1]) ** 2
                    )
                else:
                    distance = self._distance(listener_pos, sender_pos)
                if distance <= communication_range:
                    return True
        return False

    def is_interfered(self, channel: int, time: Optional[float] = None) -> bool:
        """Whether an interference burst affects ``channel`` at ``time``."""
        time = self.simulator.now if time is None else time
        bursts = self._bursts_sorted
        if not bursts or time >= self._max_burst_end:
            return False
        return any(
            bursts[index][2].affects(time, channel)
            for index in range(bisect_right(bursts, (time, math.inf)))
        )

    def interference_loss_probability(self, channel: int, time: float) -> float:
        """Largest loss probability among bursts affecting ``channel`` at ``time``."""
        bursts = self._bursts_sorted
        if not bursts or time >= self._max_burst_end:
            return 0.0
        worst = 0.0
        # Only bursts starting at or before `time` can affect it.
        for index in range(bisect_right(bursts, (time, math.inf))):
            burst = bursts[index][2]
            if burst.affects(time, channel) and burst.loss_probability > worst:
                worst = burst.loss_probability
        return worst

    # ---------------------------------------------------------------- transmit
    def transmit(
        self,
        frame: Frame,
        channel: Optional[int] = None,
        on_end: Optional[Callable[[], None]] = None,
    ) -> float:
        """Start transmitting ``frame`` now; returns the transmission end time.

        Delivery outcomes (per receiver) are decided at the end of the air
        time: out-of-range receivers never hear the frame; collisions destroy
        the frame at receivers that hear overlapping transmissions; otherwise
        the frame is lost with the interference/base loss probability and
        delivered after the propagation delay.  ``on_end``, if given, is
        called once the frame has left the air, at the end time (it is how a
        half-duplex MAC learns it may send again).
        """
        channel = frame.channel if channel is None else channel
        self._check_channel(channel)
        now = self.simulator.now
        sender_attachment = self._attachments.get(frame.source)
        if sender_attachment is None:
            raise ValueError(f"sender {frame.source!r} is not attached to the medium")
        air_time = frame.air_time(self.config.bitrate_bps)
        if air_time > self._max_air_time:
            self._max_air_time = air_time
        end = now + air_time
        tx = _Transmission(
            frame=frame,
            sender=frame.source,
            channel=channel,
            start=now,
            end=end,
            sender_position=tuple(sender_attachment.position_fn()),
            on_end=on_end,
        )
        self._on_air[channel].append(tx)
        self.stats.frames_sent += 1
        self.simulator.schedule_fast(air_time, lambda: self._complete(tx))
        return end

    def _complete(self, tx: _Transmission) -> None:
        """Resolve ``tx``'s receivers and schedule their delivery.

        Every surviving receiver is delivered by one event at ``now +
        propagation_delay`` that calls the receive callbacks in attachment
        order.  One event per receiver would have taken consecutive ``seq``
        numbers at the same ``(time, priority=0)``, so nothing already queued
        could run between them; anything a receiver schedules for that
        instant gets a later ``seq`` and runs after the whole batch either
        way.  The batch is therefore order-equivalent given two facts about
        the callers in ``src/``: none schedules with a negative priority
        (which would have cut in between two receivers), and none calls
        ``Simulator.stop()`` from a receive path (which would have stopped
        the run between two receivers).

        The sender's ``on_end`` is called last, after the delivery is
        scheduled and the lists are pruned.  That is order-equivalent to a
        separate release event at ``end`` pushed right after this one: it
        would take the same time and priority and the next ``seq``, so
        nothing could run between the two, and whatever the release
        schedules gets a ``seq`` after the delivery's either way.
        """
        now = self.simulator.now
        tx_start = tx.start
        tx_end = tx.end
        channel = tx.channel
        transmissions = self._on_air[channel]
        if len(transmissions) > 1:
            overlapping = [
                other.sender_position
                for other in transmissions
                if other is not tx and other.start < tx_end and other.end > tx_start
            ]
        else:
            overlapping = []

        frame = tx.frame
        if frame.is_broadcast:
            candidates = self._attachments.values()
            sender = tx.sender
        else:
            target = self._attachments.get(frame.destination)
            candidates = () if target is None else (target,)
            sender = None

        communication_range = self.config.communication_range
        base_loss = self.config.base_loss_probability
        # Constant per transmission (channel + start time), so evaluated once
        # instead of per receiver.
        interference_loss = self.interference_loss_probability(channel, tx_start)
        sender_pos = tx.sender_position
        planar = len(sender_pos) == 2 and all(len(p) == 2 for p in overlapping)
        if planar:
            sx, sy = sender_pos
        sqrt = math.sqrt
        distance = self._distance
        rng_random = self.rng.random
        stats = self.stats
        receivers: List[Callable[[Frame, float], None]] = []

        # Candidates are visited in attachment order, so the loss draws come
        # off the stream in the order of one scalar draw per receiver.
        for attachment in candidates:
            if attachment.listening_channel != channel or attachment.node_id == sender:
                continue
            receiver_pos = attachment.position_fn()
            if planar and len(receiver_pos) == 2:
                rx, ry = receiver_pos
                if sqrt((rx - sx) ** 2 + (ry - sy) ** 2) > communication_range:
                    stats.lost_out_of_range += 1
                    continue
                collided = False
                for ox, oy in overlapping:
                    if sqrt((rx - ox) ** 2 + (ry - oy) ** 2) <= communication_range:
                        collided = True
                        break
            else:
                if distance(receiver_pos, sender_pos) > communication_range:
                    stats.lost_out_of_range += 1
                    continue
                collided = any(
                    distance(receiver_pos, other) <= communication_range
                    for other in overlapping
                )
            if collided:
                stats.lost_collision += 1
                continue
            if interference_loss > 0:
                # Whether a base-loss draw follows depends on this draw.
                if rng_random() < interference_loss:
                    stats.lost_interference += 1
                    continue
                if base_loss > 0 and rng_random() < base_loss:
                    stats.lost_random += 1
                    continue
            receivers.append(attachment.receive)

        if base_loss > 0 and interference_loss == 0 and receivers:
            # One base-loss draw per receiver left, taken as one array: the
            # same numbers, in the same order, as one scalar draw each.
            draws = self.rng.random(len(receivers)).tolist()
            kept = [receive for receive, draw in zip(receivers, draws) if draw >= base_loss]
            stats.lost_random += len(receivers) - len(kept)
            receivers = kept

        if receivers:
            stats.deliveries += len(receivers)
            delivery_time = now + self.config.propagation_delay

            def deliver() -> None:
                for receive in receivers:
                    receive(frame, delivery_time)

            self.simulator.schedule_at_fast(delivery_time, deliver)

        self._completions_since_prune += 1
        if self._completions_since_prune >= _PRUNE_INTERVAL:
            self._prune(now)
        if tx.on_end is not None:
            tx.on_end()

    def _prune(self, now: float) -> None:
        cutoff = now - self._max_air_time
        on_air = self._on_air
        for channel, transmissions in enumerate(on_air):
            if transmissions:
                on_air[channel] = [t for t in transmissions if t.end > cutoff]
        self._completions_since_prune = 0

    def _check_channel(self, channel: int) -> None:
        if not 0 <= channel < self.config.channels:
            raise ValueError(
                f"channel {channel} out of range (medium has {self.config.channels} channels)"
            )
