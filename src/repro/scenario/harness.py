"""The scenario harness: one object owning the whole simulation stack.

Before this layer existed every use case hand-wired the identical stack —
``Simulator`` + seeded ``RandomStreams`` + shared ``TraceRecorder`` + wireless
medium + per-node MAC/broker + safety kernels + metric sampling.  The harness
owns that wiring once; scenarios declare *what* they need (a radio preset, a
world, node specs, sensor rigs, probes) and call the harness in their build
order.

Determinism contract: the harness never draws randomness itself and schedules
simulator events only where the caller asks it to, so a scenario rebuilt on
the harness in the same call order produces **byte-identical same-seed
physics** (same RNG draw order, same event order, same trace stream) as the
hand-written wiring it replaces — pinned by
``tests/test_scenario_fingerprints.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.core.kernel import SafetyKernel
from repro.middleware.broker import EventBroker
from repro.network.medium import InterferenceBurst, WirelessMedium
from repro.scenario.builders import MetricProbe, NodeSpec, RadioPreset, WorldSpec
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.trace import TraceRecorder


@dataclass
class NodeHandle:
    """The live objects built for one :class:`NodeSpec`."""

    node_id: str
    transport: Any
    broker: Optional[EventBroker] = None
    #: Channels returned by the broker announcements, in announce order.
    channels: Tuple[Any, ...] = ()


class ScenarioHarness:
    """Owns simulator, RNG streams, trace, radio stack, brokers and kernels.

    Construction builds (in order): the seeded stream factory, the event
    kernel, the trace recorder, the optional world and the optional medium.
    Everything else — nodes, kernels, probes, interference — is added by the
    scenario in its own build order, which the harness never reorders.
    """

    def __init__(
        self,
        seed: int,
        radio: Optional[RadioPreset] = None,
        world: Optional[WorldSpec] = None,
        medium_rng: Optional[np.random.Generator] = None,
        medium_stream: str = "medium",
    ):
        self.seed = int(seed)
        self.streams = RandomStreams(self.seed)
        self.simulator = Simulator()
        self.trace = TraceRecorder(enabled=True)
        self.world = world.build(self.simulator, self.trace) if world is not None else None
        self.radio = radio
        self.medium: Optional[WirelessMedium] = None
        if radio is not None:
            rng = medium_rng if medium_rng is not None else self.streams.stream(medium_stream)
            self.medium = radio.build_medium(self.simulator, rng)
        self.transports: Dict[str, Any] = {}
        self.brokers: Dict[str, EventBroker] = {}
        self.nodes: Dict[str, NodeHandle] = {}
        self.kernels: Dict[str, SafetyKernel] = {}
        self.probes: Dict[str, MetricProbe] = {}

    # ------------------------------------------------------------------- nodes
    def add_node(self, spec: NodeSpec) -> NodeHandle:
        """Build transport (+ broker, announcements, subscriptions) for one node."""
        if spec.node_id in self.nodes:
            raise ValueError(f"node {spec.node_id!r} already added")
        if self.radio is None or self.medium is None:
            raise ValueError("harness has no radio preset; pass radio= to ScenarioHarness")
        rng = spec.rng
        if rng is None:
            rng = self.streams.stream(spec.rng_stream or f"mac:{spec.node_id}")
        if not spec.broker and (spec.announce or spec.subscribe):
            raise ValueError(
                f"node {spec.node_id!r}: announce/subscribe require broker=True"
            )
        transport = self.radio.build_mac(
            spec.node_id,
            self.simulator,
            self.medium,
            rng=rng,
            position_fn=spec.position_fn,
            mac=spec.mac,
        )
        self.transports[spec.node_id] = transport
        broker: Optional[EventBroker] = None
        channels = []
        if spec.broker:
            broker = EventBroker(
                spec.node_id, self.simulator, transport, **dict(spec.broker_kwargs)
            )
            self.brokers[spec.node_id] = broker
            for announcement in spec.announce:
                if isinstance(announcement, str):
                    channels.append(broker.announce(announcement))
                else:
                    subject, qos = announcement
                    channels.append(broker.announce(subject, qos))
            for subject, callback in spec.subscribe:
                broker.subscribe(subject, callback)
        handle = NodeHandle(
            node_id=spec.node_id,
            transport=transport,
            broker=broker,
            channels=tuple(channels),
        )
        self.nodes[spec.node_id] = handle
        return handle

    # ----------------------------------------------------------------- kernels
    def attach_kernel(self, node_id: str, cycle_period: float) -> SafetyKernel:
        """Build (but do not start) a safety kernel sharing the harness trace."""
        if node_id in self.kernels:
            raise ValueError(f"kernel for {node_id!r} already attached")
        kernel = SafetyKernel(
            vehicle_id=node_id,
            simulator=self.simulator,
            cycle_period=cycle_period,
            trace=self.trace,
        )
        self.kernels[node_id] = kernel
        return kernel

    # ------------------------------------------------------------------ probes
    def add_probe(self, probe: MetricProbe) -> MetricProbe:
        """Register a metric probe and start its periodic sampling task."""
        if probe.name in self.probes:
            raise ValueError(f"probe {probe.name!r} already added")
        self.probes[probe.name] = probe
        self.simulator.periodic(probe.period, probe.tick, name=probe.name)
        return probe

    def probe(self, name: str) -> MetricProbe:
        return self.probes[name]

    # ----------------------------------------------------------- fault loading
    def add_interference_bursts(
        self,
        bursts: Iterable[Tuple[float, float]],
        channels: Optional[Sequence[int]] = None,
    ) -> None:
        """Inject ``(start, duration)`` interference bursts (all channels by default)."""
        if self.medium is None:
            raise ValueError("harness has no medium; pass radio= to ScenarioHarness")
        for start, duration in bursts:
            for channel in (
                channels if channels is not None else range(self.medium.config.channels)
            ):
                self.medium.add_interference(
                    InterferenceBurst(start=start, duration=duration, channel=channel)
                )

    # ------------------------------------------------------------- conveniences
    def spawn_streams(self, name: str) -> RandomStreams:
        """Derive a child stream factory (e.g. one per vehicle/agent)."""
        return self.streams.spawn(name)

    def periodic(self, period: float, fn: Callable[[], None], name: Optional[str] = None):
        return self.simulator.periodic(period, fn, name=name)

    def schedule(self, delay: float, fn: Callable[[], None]):
        return self.simulator.schedule(delay, fn)

    def run_until(self, time: float) -> None:
        self.simulator.run_until(time)
