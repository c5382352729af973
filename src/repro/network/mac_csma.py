"""Baseline CSMA/CA-style MAC.

This is the "standard MAC level" that R2T-MAC surrounds (paper Fig 4).  It
performs carrier sensing with random backoff and transmits frames from a
FIFO queue.  It has no notion of deadlines, inaccessibility or channel
diversity — those are exactly the features the Mediator and Channel Control
layers add on top.

Backoff slots come off the MAC's own generator through
:class:`~repro.sim.rng.ChunkedIntegers`, which reads the same numbers as one
scalar ``integers`` draw per backoff but fetches them in chunks — so the MAC
must own its generator (the scenario harness hands every node a private
``mac:<node_id>`` stream).  A retry is the bound :meth:`CsmaMacNode._retry`,
not a closure: a node runs one attempt chain at a time (``_busy``), so the
next attempt number lives on the node.  The sender is released by the
medium's own completion event for the frame (``transmit(on_end=...)``).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Tuple

import numpy as np

from repro.network.frames import Frame
from repro.network.medium import WirelessMedium
from repro.sim.kernel import Simulator
from repro.sim.rng import ChunkedIntegers


@dataclass
class CsmaConfig:
    """CSMA parameters."""

    slot_time: float = 50e-6
    min_backoff_slots: int = 1
    max_backoff_slots: int = 32
    max_attempts: int = 8
    queue_capacity: int = 64

    def __post_init__(self) -> None:
        if not (self.slot_time > 0 and math.isfinite(self.slot_time)):
            raise ValueError(f"slot_time must be positive and finite, got {self.slot_time}")
        if self.min_backoff_slots < 0:
            raise ValueError(f"min_backoff_slots must be >= 0, got {self.min_backoff_slots}")
        if self.max_backoff_slots < self.min_backoff_slots:
            raise ValueError("max_backoff_slots < min_backoff_slots")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")


@dataclass
class MacStats:
    enqueued: int = 0
    transmitted: int = 0
    received: int = 0
    dropped_queue_full: int = 0
    dropped_attempts: int = 0
    backoffs: int = 0


class CsmaMacNode:
    """A node running carrier-sense multiple access on the shared medium."""

    def __init__(
        self,
        node_id: str,
        simulator: Simulator,
        medium: WirelessMedium,
        config: Optional[CsmaConfig] = None,
        rng: Optional[np.random.Generator] = None,
        position_fn: Optional[Callable[[], Tuple[float, ...]]] = None,
        channel: int = 0,
    ):
        self.node_id = node_id
        self.simulator = simulator
        self.medium = medium
        self.config = config or CsmaConfig()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.channel = channel
        self.stats = MacStats()
        self._queue: Deque[Frame] = deque()
        self._busy = False
        self._slots = ChunkedIntegers(self.rng)
        self._next_attempt = 1
        self._receive_listeners: List[Callable[[Frame, float], None]] = []
        medium.attach(
            node_id,
            receive=self._on_receive,
            position_fn=position_fn,
            listening_channel=channel,
        )

    # ----------------------------------------------------------------- upper API
    def on_receive(self, listener: Callable[[Frame, float], None]) -> None:
        """Register an upper-layer receive callback."""
        self._receive_listeners.append(listener)

    def send(self, frame: Frame) -> bool:
        """Enqueue a frame for transmission; returns False if the queue is full."""
        if len(self._queue) >= self.config.queue_capacity:
            self.stats.dropped_queue_full += 1
            return False
        frame.created_at = self.simulator.now
        frame.channel = self.channel
        self._queue.append(frame)
        self.stats.enqueued += 1
        self._try_transmit()
        return True

    def set_channel(self, channel: int) -> None:
        """Retune transmitter and receiver to ``channel``."""
        self.channel = channel
        self.medium.set_listening_channel(self.node_id, channel)

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    # ----------------------------------------------------------------- internals
    def _on_receive(self, frame: Frame, time: float) -> None:
        self.stats.received += 1
        for listener in self._receive_listeners:
            listener(frame, time)

    def _try_transmit(self) -> None:
        if self._busy or not self._queue:
            return
        self._busy = True
        self._attempt(1)

    def _retry(self) -> None:
        self._attempt(self._next_attempt)

    def _attempt(self, attempt: int) -> None:
        if not self._queue:
            self._busy = False
            return
        config = self.config
        if attempt > config.max_attempts:
            self._queue.popleft()
            self.stats.dropped_attempts += 1
            self._busy = False
            self._try_transmit()
            return
        if self.medium.is_busy(self.node_id, self.channel):
            self.stats.backoffs += 1
            low = config.min_backoff_slots
            # The window never closes below its floor, so a draw is always
            # possible; with the default floor of 1 the top is at least 2.
            top = max(low, min(config.max_backoff_slots, 2 ** attempt))
            slots = low + self._slots.below(top - low + 1)
            self._next_attempt = attempt + 1
            self.simulator.schedule_fast(slots * config.slot_time, self._retry)
            return
        frame = self._queue.popleft()
        frame.channel = self.channel
        # Half-duplex: next frame only after this transmission ends.
        self.medium.transmit(frame, channel=self.channel, on_end=self._transmission_done)
        self.stats.transmitted += 1

    def _transmission_done(self) -> None:
        self._busy = False
        self._try_transmit()
