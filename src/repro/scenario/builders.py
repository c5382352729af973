"""Builder components scenarios compose instead of hand-wiring.

Each builder is a small declarative description of one slice of the
simulation stack; :class:`~repro.scenario.harness.ScenarioHarness` turns them
into live objects in a deterministic, reproducible order:

* :class:`RadioPreset` — the shared wireless medium plus the MAC flavour
  (R2T-MAC or plain CSMA) every node's transport is built from;
* :class:`WorldSpec` — the physical environment (multi-lane highway or
  shared airspace) stepping the vehicles;
* :class:`NodeSpec` — one communicating node: transport, event broker,
  channel announcements and subscriptions;
* :class:`SensorRig` — a noisy physical sensor wrapped into an abstract
  sensor with its fault-detector stack;
* :class:`MetricProbe` — a named periodic sampler accumulating metric
  samples and counters for the scenario's results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.middleware.qos import QoSSpec
from repro.network.mac_csma import CsmaConfig, CsmaMacNode
from repro.network.medium import MediumConfig, WirelessMedium
from repro.network.r2t_mac import R2TConfig, R2TMacNode
from repro.sensors.abstract_sensor import AbstractSensor, PhysicalSensor
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.trace import TraceRecorder
from repro.vehicles.aircraft import AirspaceWorld
from repro.vehicles.world import HighwayWorld

PositionFn = Callable[[], Tuple[float, ...]]

@dataclass(frozen=True)
class RadioPreset:
    """The radio stack: one shared medium plus a per-node MAC flavour.

    ``mac`` selects the default transport built for every node (``"r2t"``
    for the paper's R2T-MAC with channel hopping, ``"csma"`` for the plain
    CSMA/CA baseline); individual :class:`NodeSpec` entries may override it.
    """

    mac: str = "r2t"
    medium: MediumConfig = field(default_factory=MediumConfig)
    r2t_config: Optional[R2TConfig] = None
    csma_config: Optional[CsmaConfig] = None
    channel: int = 0

    def __post_init__(self) -> None:
        if self.mac not in ("r2t", "csma"):
            raise ValueError(f"unknown MAC preset {self.mac!r} (expected 'r2t' or 'csma')")

    def build_medium(self, simulator: Simulator, rng: np.random.Generator) -> WirelessMedium:
        return WirelessMedium(simulator, self.medium, rng=rng)

    def build_mac(
        self,
        node_id: str,
        simulator: Simulator,
        medium: WirelessMedium,
        rng: np.random.Generator,
        position_fn: Optional[PositionFn] = None,
        mac: Optional[str] = None,
    ):
        kind = mac or self.mac
        if kind == "r2t":
            return R2TMacNode(
                node_id,
                simulator,
                medium,
                config=self.r2t_config or R2TConfig(),
                csma_config=self.csma_config,
                rng=rng,
                position_fn=position_fn,
                channel=self.channel,
            )
        if kind == "csma":
            return CsmaMacNode(
                node_id,
                simulator,
                medium,
                config=self.csma_config,
                rng=rng,
                position_fn=position_fn,
                channel=self.channel,
            )
        raise ValueError(f"unknown MAC kind {kind!r} (expected 'r2t' or 'csma')")


@dataclass(frozen=True)
class WorldSpec:
    """The physical environment hosting the scenario's vehicles."""

    kind: str = "highway"  # "highway" | "airspace"
    lanes: int = 1
    step_period: float = 0.05

    def build(self, simulator: Simulator, trace: TraceRecorder):
        if self.kind == "highway":
            return HighwayWorld(
                simulator, lanes=self.lanes, step_period=self.step_period, trace=trace
            )
        if self.kind == "airspace":
            return AirspaceWorld(simulator, step_period=self.step_period, trace=trace)
        raise ValueError(f"unknown world kind {self.kind!r} (expected 'highway' or 'airspace')")


#: One announcement: a bare subject (best-effort) or ``(subject, QoSSpec)``.
Announcement = Union[str, Tuple[str, Optional[QoSSpec]]]


@dataclass(frozen=True)
class NodeSpec:
    """One communicating node of the scenario.

    The harness builds, in order: the MAC transport (seeded from the node's
    own named RNG stream), the event broker, every ``announce`` channel and
    every ``subscribe`` callback — exactly the wiring each use case used to
    repeat by hand.
    """

    node_id: str
    position_fn: Optional[PositionFn] = None
    #: Override the preset's MAC flavour for this node ("r2t" | "csma").
    mac: Optional[str] = None
    #: Explicit generator (e.g. legacy ``default_rng(seed + k)`` wiring);
    #: defaults to the harness stream named by ``rng_stream``.
    rng: Optional[np.random.Generator] = None
    #: Stream name within the harness streams; defaults to ``mac:<node_id>``.
    rng_stream: Optional[str] = None
    announce: Tuple[Announcement, ...] = ()
    subscribe: Tuple[Tuple[str, Callable[[Any], None]], ...] = ()
    #: Build an event broker on top of the transport (disable for raw MAC use).
    broker: bool = True
    #: Extra :class:`~repro.middleware.broker.EventBroker` keyword arguments
    #: (e.g. ``assessor``, ``admission_control``).
    broker_kwargs: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class SensorRig:
    """A noisy physical sensor wrapped into an abstract sensor with detectors.

    ``detectors`` is a zero-argument factory because detector instances are
    stateful; every :meth:`build` call gets a fresh stack.
    """

    name: str
    quantity: str
    noise_sigma: float
    detectors: Callable[[], List[Any]] = tuple
    #: Stream name drawn from the ``RandomStreams`` passed to :meth:`build`.
    stream: str = "sensor"

    def build(
        self,
        truth_fn: Callable[[float], float],
        streams: Optional[RandomStreams] = None,
        rng: Optional[np.random.Generator] = None,
        name: Optional[str] = None,
    ) -> AbstractSensor:
        if rng is None:
            if streams is None:
                raise ValueError("SensorRig.build needs either `streams` or an explicit `rng`")
            rng = streams.stream(self.stream)
        physical = PhysicalSensor(
            name=name or self.name,
            quantity=self.quantity,
            truth_fn=truth_fn,
            noise_sigma=self.noise_sigma,
            rng=rng,
        )
        return AbstractSensor(physical, detectors=list(self.detectors()))


class MetricProbe:
    """A named periodic sampler owning its accumulated samples and counters.

    The ``sampler`` callable receives the probe itself each period and feeds
    it through :meth:`add` / :meth:`increment`; the scenario's result
    assembly then reads :attr:`samples` and :meth:`count` instead of keeping
    ad-hoc private lists on the scenario object.
    """

    def __init__(
        self,
        name: str,
        period: float,
        sampler: Callable[["MetricProbe"], None],
    ):
        self.name = name
        self.period = period
        self.samples: List[Any] = []
        self.counters: Dict[str, int] = {}
        self._sampler = sampler

    def tick(self) -> None:
        self._sampler(self)

    # ------------------------------------------------------------ accumulation
    def add(self, value: Any) -> None:
        self.samples.append(value)

    def increment(self, key: str, by: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + by

    # ----------------------------------------------------------------- queries
    def count(self, key: str) -> int:
        return self.counters.get(key, 0)

    def mean(self, default: float = 0.0) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else default

    def share(self, value: Any) -> float:
        """Fraction of samples equal to ``value`` (0.0 when empty)."""
        if not self.samples:
            return 0.0
        return sum(1 for sample in self.samples if sample == value) / len(self.samples)
