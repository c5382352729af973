"""Built-in scenario registrations.

Every experiment the repo knows how to run — the four paper use cases
(platoon/ACC, intersection VTL, lane change, avionics) with their
architecture variants, and the network/sensor experiments E2-E5 that used to
live as private loops inside ``benchmarks/`` — is registered here as a
declarative scenario.  Factories take ``(seed, **primitive_params)`` and
return either a ``*Results`` dataclass or a plain metrics dict, so they can
run in worker processes and their metrics can be persisted as JSONL.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.experiments.registry import REGISTRY, scenario

# --------------------------------------------------------------------------
# Use case VI-A.1 — ACC / platooning (experiments E1, E6, E9a)
# --------------------------------------------------------------------------


@scenario(
    "platoon",
    description="Highway platoon under blackouts and sensor faults (E1/E6/E9a)",
    metric_fields=(
        "variant",
        "collisions",
        "hazardous_states",
        "min_gap",
        "min_time_gap",
        "mean_speed",
        "mean_time_gap",
        "throughput",
        "downgrades",
        "max_kernel_cycle_interval",
        "los_residency",
    ),
    default_seeds=(1,),
    tags=("usecase", "automotive", "e1", "e6", "e9"),
)
def run_platoon(
    seed: int,
    followers: int = 3,
    duration: float = 45.0,
    variant: str = "karyon",
    blackout_start: float = 18.0,
    blackout_duration: float = 8.0,
    blackout2_start: float = 0.0,
    blackout2_duration: float = 0.0,
    kernel_period: float = 0.1,
    fault_class: str = "none",
    fault_start: float = 5.0,
    fault_magnitude: float = 1.0,
):
    """Run one platoon scenario and return its :class:`PlatoonResults`."""
    from repro.sensors.faults import FaultClass, make_fault
    from repro.usecases.acc import ArchitectureVariant, PlatoonConfig, PlatoonScenario

    bursts = []
    if blackout_duration > 0:
        bursts.append((blackout_start, blackout_duration))
    if blackout2_duration > 0:
        bursts.append((blackout2_start, blackout2_duration))
    sensor_faults = ()
    if fault_class != "none":
        sensor_faults = tuple(
            (i, make_fault(FaultClass(fault_class), magnitude=fault_magnitude), fault_start, duration)
            for i in range(1, followers + 1)
        )
    config = PlatoonConfig(
        followers=followers,
        duration=duration,
        variant=ArchitectureVariant(variant),
        seed=seed,
        interference_bursts=tuple(bursts),
        sensor_faults=sensor_faults,
        kernel_period=kernel_period,
    )
    return PlatoonScenario(config).run()


REGISTRY.variant(
    "platoon", "platoon/karyon", variant="karyon",
    description="Platoon with the KARYON safety kernel selecting the LoS",
)
REGISTRY.variant(
    "platoon", "platoon/always_cooperative", variant="always_cooperative",
    description="Platoon baseline that always trusts V2V data (no kernel)",
)
REGISTRY.variant(
    "platoon", "platoon/never_cooperative", variant="never_cooperative",
    description="Platoon baseline that never cooperates (no kernel)",
)


# --------------------------------------------------------------------------
# Use case VI-A.2 — intersection crossing with VTL fallback (E7)
# --------------------------------------------------------------------------


@scenario(
    "intersection",
    description="Intersection crossing: infrastructure light vs VTL fallback (E7)",
    metric_fields=("mode", "crossed", "conflicts", "throughput", "mean_delay", "vtl_activations"),
    default_seeds=(7,),
    tags=("usecase", "automotive", "e7"),
)
def run_intersection(
    seed: int,
    mode: str = "vtl_fallback",
    vehicles_per_approach: int = 3,
    duration: float = 120.0,
    light_failure_time: float = 15.0,
):
    """Run one intersection scenario and return its :class:`IntersectionResults`."""
    from repro.usecases.intersection import (
        IntersectionConfig,
        IntersectionMode,
        IntersectionScenario,
    )

    intersection_mode = IntersectionMode(mode)
    failure = None
    if intersection_mode is not IntersectionMode.INFRASTRUCTURE and light_failure_time >= 0:
        failure = light_failure_time
    config = IntersectionConfig(
        mode=intersection_mode,
        vehicles_per_approach=vehicles_per_approach,
        duration=duration,
        seed=seed,
        light_failure_time=failure,
    )
    return IntersectionScenario(config).run()


REGISTRY.variant(
    "intersection", "intersection/infrastructure", mode="infrastructure",
    description="Intersection with a healthy road-side traffic light",
)
REGISTRY.variant(
    "intersection", "intersection/vtl_fallback", mode="vtl_fallback",
    description="Road-side light fails; virtual traffic light takes over",
)
REGISTRY.variant(
    "intersection", "intersection/uncoordinated", mode="uncoordinated",
    description="Road-side light fails; vehicles cross after a courtesy stop",
)


# --------------------------------------------------------------------------
# Use case VI-A.3 — coordinated lane changes (E9b)
# --------------------------------------------------------------------------


@scenario(
    "lane_change",
    description="Coordinated lane-change manoeuvres with agreement leases (E9b)",
    metric_fields=(
        "coordinated",
        "completed_changes",
        "simultaneous_violations",
        "lateral_conflicts",
        "aborted_proposals",
        "mean_wait",
    ),
    default_seeds=(11,),
    tags=("usecase", "automotive", "e9"),
)
def run_lane_change(
    seed: int,
    coordinated: bool = True,
    duration: float = 45.0,
    agreement_timeout: float = 1.0,
):
    """Run one lane-change scenario and return its :class:`LaneChangeResults`."""
    from repro.usecases.lane_change import LaneChangeConfig, LaneChangeScenario

    config = LaneChangeConfig(
        coordinated=coordinated,
        duration=duration,
        agreement_timeout=agreement_timeout,
        seed=seed,
    )
    return LaneChangeScenario(config).run()


REGISTRY.variant(
    "lane_change", "lane_change/coordinated", coordinated=True,
    description="Lane changes serialised through maneuver agreement leases",
)
REGISTRY.variant(
    "lane_change", "lane_change/uncoordinated", coordinated=False,
    description="Lane changes without coordination (violation baseline)",
)


# --------------------------------------------------------------------------
# Use case VI-B — RPV separation assurance (E8)
# --------------------------------------------------------------------------


@scenario(
    "avionics",
    description="RPV separation assurance among shared-airspace traffic (E8)",
    metric_fields=(
        "use_case",
        "conflicts",
        "min_horizontal_separation",
        "min_vertical_separation",
        "mission_time",
        "mission_completed",
        "los_share_collaborative",
    ),
    default_seeds=(3,),
    tags=("usecase", "avionics", "e8"),
)
def run_avionics(
    seed: int,
    use_case: str = "in_trail",
    with_safety_kernel: bool = True,
    intruder_collaborative: bool = True,
    duration: float = 500.0,
):
    """Run one avionic scenario and return its :class:`AvionicsResults`."""
    from repro.usecases.avionics import AvionicsConfig, AvionicsScenario, AvionicsUseCase

    config = AvionicsConfig(
        use_case=AvionicsUseCase(use_case),
        with_safety_kernel=with_safety_kernel,
        intruder_collaborative=intruder_collaborative,
        duration=duration,
        seed=seed,
    )
    return AvionicsScenario(config).run()


REGISTRY.variant(
    "avionics", "avionics/in_trail", use_case="in_trail",
    description="RPV following traffic in-trail",
)
REGISTRY.variant(
    "avionics", "avionics/crossing", use_case="crossing",
    description="RPV crossing levelled traffic",
)
REGISTRY.variant(
    "avionics", "avionics/level_change", use_case="level_change",
    description="RPV climbing through an occupied flight level",
)


# --------------------------------------------------------------------------
# E2 — abstract-sensor validity and validity-weighted fusion
# --------------------------------------------------------------------------


@scenario(
    "sensor_validity",
    description="Per-fault-class detection coverage and fusion error (E2)",
    metric_fields=(
        "fault_class",
        "detection_coverage",
        "faulty_sensor_mae",
        "naive_mean_mae",
        "validity_weighted_mae",
    ),
    default_seeds=(0,),
    tags=("sensors", "e2"),
)
def run_sensor_validity(
    seed: int,
    fault_class: str = "stuck_at",
    magnitude: float = 3.0,
    samples: int = 400,
    period: float = 0.05,
    fault_start: float = 5.0,
    true_value: float = 50.0,
) -> Dict[str, Any]:
    """Inject one fault class into one of three redundant ranging replicas,
    as a one-seed block sweep (:mod:`repro.scenario.sensor_sweep`)."""
    from repro.scenario.sensor_sweep import sensor_validity_sweep

    params = (fault_class, magnitude, samples, period, fault_start, true_value)
    return sensor_validity_sweep([seed], *params)[0]


# --------------------------------------------------------------------------
# E3 — R2T-MAC vs plain CSMA under interference bursts
# --------------------------------------------------------------------------


@scenario(
    "r2t_mac",
    description="Safety-message deadline misses: R2T-MAC vs CSMA (E3)",
    metric_fields=(
        "mac",
        "messages",
        "deadline_miss_ratio",
        "max_inaccessibility_s",
        "channel_switches",
    ),
    default_seeds=(0,),
    tags=("network", "e3"),
)
def run_r2t_mac(
    seed: int,
    use_r2t: bool = True,
    duration: float = 30.0,
    message_period: float = 0.1,
    deadline: float = 0.1,
    burst1_start: float = 5.0,
    burst1_duration: float = 3.0,
    burst2_start: float = 15.0,
    burst2_duration: float = 4.0,
) -> Dict[str, Any]:
    """Periodic safety messages between two vehicles under channel bursts."""
    from repro.network.frames import Frame, FrameKind
    from repro.network.medium import MediumConfig
    from repro.scenario import NodeSpec, RadioPreset, ScenarioHarness

    bursts = ((burst1_start, burst1_duration), (burst2_start, burst2_duration))
    harness = ScenarioHarness(
        seed=seed,
        radio=RadioPreset(
            mac="r2t" if use_r2t else "csma",
            medium=MediumConfig(base_loss_probability=0.02, channels=3),
        ),
        medium_rng=np.random.default_rng(seed),
    )
    sim = harness.simulator
    harness.add_interference_bursts(bursts, channels=(0,))

    sender = harness.add_node(
        NodeSpec("a", rng=np.random.default_rng(seed + 1), broker=False)
    ).transport
    receiver = harness.add_node(
        NodeSpec("b", rng=np.random.default_rng(seed + 2), broker=False)
    ).transport

    delivered: Dict[Any, float] = {}
    receiver.on_receive(lambda frame, t: delivered.setdefault(frame.frame_id, t))
    sent = []

    def send_safety_message() -> None:
        frame = Frame(
            source="a",
            payload={"t": sim.now},
            kind=FrameKind.SAFETY,
            deadline=sim.now + deadline,
        )
        sent.append(frame)
        sender.send(frame)

    sim.periodic(message_period, send_safety_message)
    sim.run_until(duration)

    misses = 0
    for frame in sent:
        delivery = delivered.get(frame.frame_id)
        if delivery is None or delivery > frame.deadline:
            misses += 1
    if use_r2t:
        max_inaccessibility = receiver.inaccessibility.max_duration()
    else:
        max_inaccessibility = max(burst1_duration, burst2_duration)
    return {
        "mac": "R2T-MAC" if use_r2t else "CSMA",
        "messages": len(sent),
        "deadline_miss_ratio": misses / len(sent),
        "max_inaccessibility_s": round(max_inaccessibility, 3),
        "channel_switches": sender.channel_control.switches if use_r2t else 0,
    }


# --------------------------------------------------------------------------
# E4 — self-stabilising TDMA and GPS-free pulse alignment
# --------------------------------------------------------------------------


@scenario(
    "tdma_convergence",
    description="Self-stabilising TDMA frames to convergence on a grid (E4a)",
    metric_fields=("frames_to_converge", "converged"),
    default_seeds=(1, 2, 3),
    tags=("network", "e4"),
)
def run_tdma_convergence(
    seed: int,
    rows: int = 3,
    cols: int = 3,
    slots: int = 12,
    churn: bool = False,
) -> Dict[str, Any]:
    """TDMA slot self-assignment on a rows x cols grid, optionally with churn."""
    from repro.network.tdma import TdmaConfig, TdmaNetwork

    network = TdmaNetwork.grid(
        rows, cols, TdmaConfig(slots_per_frame=slots), rng=np.random.default_rng(seed)
    )
    frames = network.run_until_converged(max_frames=3000)
    converged = frames is not None
    if churn and converged:
        # A node joins with a deliberately conflicting slot; measure re-convergence.
        anchor = next(iter(network.nodes))
        network.add_node("joiner", neighbors={anchor}, slot=network.nodes[anchor].slot)
        extra = network.run_until_converged(max_frames=3000)
        converged = extra is not None
        frames = frames + extra if converged else None
    return {"frames_to_converge": frames, "converged": converged}


@scenario(
    "pulse_alignment",
    description="GPS-free pulse-synchronisation rounds to alignment (E4b)",
    metric_fields=("rounds_to_align", "aligned"),
    default_seeds=(1, 2, 3),
    tags=("network", "e4"),
)
def run_pulse_alignment(
    seed: int,
    nodes: int = 8,
    correction_gain: float = 0.5,
    threshold: float = 0.002,
    pulse_loss_probability: float = 0.05,
    max_rounds: int = 400,
) -> Dict[str, Any]:
    """Chain of drifting nodes aligning frame starts via pulse corrections."""
    from repro.network.pulse_sync import PulseSyncConfig, PulseSyncNetwork

    config = PulseSyncConfig(
        correction_gain=correction_gain, pulse_loss_probability=pulse_loss_probability
    )
    network = PulseSyncNetwork(config, rng=np.random.default_rng(seed))
    names = [f"n{i}" for i in range(nodes)]
    for i, name in enumerate(names):
        neighbors = {names[i - 1]} if i else set()
        network.add_node(name, drift_ppm=40.0 * (i - nodes / 2), neighbors=neighbors)
    rounds = network.run_until_aligned(threshold=threshold, max_rounds=max_rounds)
    return {"rounds_to_align": rounds, "aligned": rounds is not None}


# --------------------------------------------------------------------------
# E5 — FAMOUSO event channels with QoS admission control
# --------------------------------------------------------------------------


@scenario(
    "event_channels",
    description="Event-channel latency with and without QoS admission (E5)",
    metric_fields=(
        "publishers",
        "admission_control",
        "admitted",
        "rejected",
        "deliveries",
        "mean_latency_ms",
        "p99_latency_ms",
        "deadline_miss_ratio",
    ),
    default_seeds=(0,),
    tags=("middleware", "e5"),
)
def run_event_channels(
    seed: int,
    publishers: int = 6,
    admission: bool = True,
    duration: float = 10.0,
    max_latency: float = 0.02,
    rate_hz: float = 20.0,
    payload_bits: int = 4000,
) -> Dict[str, Any]:
    """Many publishers offering load to a shared medium through event channels."""
    from repro.middleware.qos import NetworkAssessor, QoSSpec
    from repro.network.medium import MediumConfig
    from repro.scenario import NodeSpec, RadioPreset, ScenarioHarness

    base = seed * 1000
    harness = ScenarioHarness(
        seed=seed,
        radio=RadioPreset(
            mac="csma",
            medium=MediumConfig(base_loss_probability=0.01, bitrate_bps=1_000_000.0),
        ),
        medium_rng=np.random.default_rng(base),
    )
    sim = harness.simulator
    assessor = NetworkAssessor(harness.medium, max_utilization=0.5)
    subscriber = harness.add_node(
        NodeSpec(
            "subscriber",
            rng=np.random.default_rng(base + 99),
            broker_kwargs={"assessor": assessor, "admission_control": admission},
        )
    ).broker
    latencies: list = []
    received = [0]

    def on_event(event) -> None:
        received[0] += 1
        latencies.append(sim.now - event.published_at)

    admitted = 0
    rejected = 0
    publishers_list = []
    for index in range(publishers):
        subject = f"karyon/topic{index}"
        spec = QoSSpec(max_latency=max_latency, rate_hz=rate_hz, payload_bits=payload_bits)
        handle = harness.add_node(
            NodeSpec(
                f"pub{index}",
                rng=np.random.default_rng(base + index),
                broker_kwargs={"assessor": assessor, "admission_control": admission},
                announce=((subject, spec),),
            )
        )
        broker, channel = handle.broker, handle.channels[0]
        subscriber.subscribe(subject, on_event)
        if channel.has_guarantee:
            admitted += 1
        elif not channel.is_usable:
            rejected += 1
        publishers_list.append((broker, subject, channel))

    def publish_all() -> None:
        for broker, subject, _channel in publishers_list:
            broker.publish(subject, content={"t": sim.now})

    sim.periodic(1.0 / rate_hz, publish_all)
    sim.run_until(duration)

    misses = sum(1 for latency in latencies if latency > max_latency)
    return {
        "publishers": publishers,
        "admission_control": admission,
        "admitted": admitted if admission else publishers,
        "rejected": rejected,
        "deliveries": received[0],
        "mean_latency_ms": round(1000 * float(np.mean(latencies)) if latencies else 0.0, 3),
        "p99_latency_ms": round(1000 * float(np.percentile(latencies, 99)) if latencies else 0.0, 3),
        "deadline_miss_ratio": round(misses / len(latencies), 4) if latencies else 0.0,
    }


# --------------------------------------------------------------------------
# ROADMAP workloads built on the repro.scenario composition layer
# --------------------------------------------------------------------------


@scenario(
    "urban_grid",
    description="Multi-platoon city grid sharing one wireless spectrum",
    metric_fields=(
        "streets",
        "variant",
        "collisions",
        "hazardous_states",
        "min_time_gap",
        "mean_time_gap",
        "mean_speed",
        "throughput",
        "downgrades",
        "frames_sent",
        "delivery_ratio",
    ),
    default_seeds=(1,),
    tags=("workload", "automotive", "grid"),
)
def run_urban_grid(
    seed: int,
    streets: int = 3,
    followers: int = 3,
    duration: float = 45.0,
    variant: str = "karyon",
    grid_spacing: float = 150.0,
    brake_start: float = 15.0,
    brake_stagger: float = 6.0,
    blackout_start: float = 0.0,
    blackout_duration: float = 0.0,
):
    """Run one urban-grid scenario and return its :class:`UrbanGridResults`."""
    from repro.usecases.acc import ArchitectureVariant
    from repro.usecases.urban_grid import UrbanGridConfig, UrbanGridScenario

    bursts = ((blackout_start, blackout_duration),) if blackout_duration > 0 else ()
    config = UrbanGridConfig(
        streets=streets,
        followers=followers,
        duration=duration,
        variant=ArchitectureVariant(variant),
        seed=seed,
        grid_spacing=grid_spacing,
        brake_start=brake_start,
        brake_stagger=brake_stagger,
        interference_bursts=bursts,
    )
    return UrbanGridScenario(config).run()


@scenario(
    "corridor",
    description="Chained multi-intersection arterial with green-wave lights",
    metric_fields=(
        "intersections",
        "green_wave",
        "crossed",
        "conflicts",
        "throughput",
        "mean_travel_time",
        "stops_per_vehicle",
    ),
    default_seeds=(9,),
    tags=("workload", "automotive", "corridor"),
)
def run_corridor(
    seed: int,
    intersections: int = 3,
    green_wave: bool = True,
    arterial_vehicles: int = 6,
    cross_vehicles: int = 2,
    duration: float = 150.0,
    failed_light: int = -1,
    light_failure_time: float = 30.0,
):
    """Run one corridor scenario and return its :class:`CorridorResults`."""
    from repro.usecases.corridor import CorridorConfig, CorridorScenario

    config = CorridorConfig(
        intersections=intersections,
        green_wave=green_wave,
        arterial_vehicles=arterial_vehicles,
        cross_vehicles=cross_vehicles,
        duration=duration,
        seed=seed,
        failed_light=failed_light,
        light_failure_time=light_failure_time,
    )
    return CorridorScenario(config).run()


REGISTRY.variant(
    "corridor", "corridor/green_wave", green_wave=True,
    description="Corridor with lights offset by one block's travel time",
)
REGISTRY.variant(
    "corridor", "corridor/unsynchronised", green_wave=False,
    description="Corridor with all lights cycling in phase (stop per block)",
)


@scenario(
    "mixed_airspace",
    description="RPV ADS-B feed sharing spectrum with ground V2V traffic",
    metric_fields=(
        "ground_nodes",
        "with_safety_kernel",
        "conflicts",
        "min_horizontal_separation",
        "mission_time",
        "mission_completed",
        "los_share_collaborative",
        "adsb_received",
        "adsb_mean_age",
        "frames_sent",
        "delivery_ratio",
    ),
    default_seeds=(3,),
    tags=("workload", "avionics", "automotive", "spectrum"),
)
def run_mixed_airspace(
    seed: int,
    ground_nodes: int = 8,
    ground_rate_hz: float = 10.0,
    with_safety_kernel: bool = True,
    duration: float = 400.0,
    burst_start: float = 0.0,
    burst_duration: float = 0.0,
):
    """Run one mixed-airspace scenario and return its :class:`MixedAirspaceResults`."""
    from repro.usecases.mixed_airspace import MixedAirspaceConfig, MixedAirspaceScenario

    bursts = ((burst_start, burst_duration),) if burst_duration > 0 else ()
    config = MixedAirspaceConfig(
        ground_nodes=ground_nodes,
        ground_rate_hz=ground_rate_hz,
        with_safety_kernel=with_safety_kernel,
        duration=duration,
        seed=seed,
        interference_bursts=bursts,
    )
    return MixedAirspaceScenario(config).run()


REGISTRY.variant(
    "mixed_airspace", "mixed_airspace/kernel", with_safety_kernel=True,
    description="Mixed airspace with the safety kernel gating the margin",
)
REGISTRY.variant(
    "mixed_airspace", "mixed_airspace/no_kernel", with_safety_kernel=False,
    description="Mixed airspace baseline flying the tight margin blindly",
)


# --------------------------------------------------------------------------
# Demo scenarios: cheap, deterministic, good for smoke tests and the CLI
# --------------------------------------------------------------------------


@scenario(
    "demo/random_walk",
    description="Seeded random walk (cheap smoke-test scenario)",
    metric_fields=("final_position", "max_excursion", "crossings"),
    default_seeds=(1, 2, 3, 4),
    tags=("demo",),
)
def run_random_walk(
    seed: int,
    steps: int = 1000,
    drift: float = 0.0,
    sigma: float = 1.0,
) -> Dict[str, Any]:
    """A one-dimensional random walk; metrics depend only on the seed."""
    rng = np.random.default_rng(seed)
    walk = np.cumsum(drift + sigma * rng.standard_normal(steps))
    return {
        "final_position": float(walk[-1]),
        "max_excursion": float(np.max(np.abs(walk))),
        "crossings": int(np.sum(np.signbit(walk[:-1]) != np.signbit(walk[1:]))),
    }


@scenario(
    "demo/safety_kernel",
    description="Minimal KARYON safety kernel riding out sensor and V2V faults",
    metric_fields=(
        "cycles",
        "downgrades",
        "los_switches",
        "max_cycle_interval",
        "final_los",
    ),
    default_seeds=(1, 2, 3),
    tags=("demo", "kernel"),
)
def run_safety_kernel_demo(
    seed: int,
    duration: float = 40.0,
    fault_start: float = 8.0,
    fault_end: float = 16.0,
    v2v_silence_start: float = 20.0,
    v2v_silence_end: float = 30.0,
) -> Dict[str, Any]:
    """One vehicle, one faulty radar, one flaky V2V link, one safety kernel."""
    from repro.core.los import LevelOfService, LoSCatalog
    from repro.core.rules import freshness_within, indicator_true, validity_at_least
    from repro.scenario import ScenarioHarness, SensorRig
    from repro.sensors.detectors import RangeDetector, StuckAtDetector
    from repro.sensors.faults import StuckAtFault

    harness = ScenarioHarness(seed=seed)
    sim = harness.simulator
    radar = SensorRig(
        name="radar",
        quantity="range",
        noise_sigma=0.3,
        detectors=lambda: [RangeDetector(0.0, 200.0), StuckAtDetector(window=10, min_run=4)],
    ).build(lambda t: 50.0 + 5.0 * np.sin(0.2 * t), rng=np.random.default_rng(seed))
    sim.periodic(0.05, lambda: radar.read(sim.now), name="radar-sampling")
    radar.physical.inject(StuckAtFault(), start=fault_start, end=fault_end)

    def v2v_alive() -> bool:
        return not (v2v_silence_start <= sim.now < v2v_silence_end)

    kernel = harness.attach_kernel("vehicle-1", cycle_period=0.1)
    kernel.monitor_sensor("range", radar)
    kernel.monitor_indicator("v2v_alive", v2v_alive)
    catalog = LoSCatalog(
        "acc",
        [
            LevelOfService("conservative", 0, {"time_gap": 2.5}),
            LevelOfService("autonomous", 1, {"time_gap": 1.4}),
            LevelOfService("cooperative", 2, {"time_gap": 0.6}, cooperative=True),
        ],
    )
    rules = {
        1: [validity_at_least("range", 0.5), freshness_within("range", 0.3)],
        2: [indicator_true("v2v_alive")],
    }
    history: list = []
    kernel.define_functionality(
        catalog,
        enactor=lambda level: history.append((round(sim.now, 1), level.name)),
        rules_by_rank=rules,
    )
    kernel.start()
    sim.run_until(duration)
    summary = kernel.summary()
    return {
        "cycles": summary["cycles"],
        "downgrades": summary["downgrades"],
        "los_switches": len(history),
        "max_cycle_interval": round(summary["max_cycle_interval"], 4),
        "final_los": summary["current_los"]["acc"],
    }
