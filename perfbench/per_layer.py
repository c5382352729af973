"""Per-layer metrics of a traced run, from the tracer and the traced passes.

Counts are those of the *first* traced cycle (every campaign of the set
once: the same work in every run, so they repeat exactly);
times are summed over every traced pass; ``*.p50`` values and ratios are
medians over the traced samples.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from layers import LAYERS, UNATTRIBUTED
from measures import cells_per_s, median

#: Float rounding allowed per traced pass when the layer self times plus
#: ``unattributed`` are checked against the traced wall time.
ACCOUNTING_TOLERANCE_S = 1e-6


def _sum_keys(table: Dict[str, float], prefix: str, suffix: str) -> float:
    return sum(v for k, v in table.items() if k.startswith(prefix) and k.endswith(suffix))


def per_layer_metrics(
    tracer, traced: List, untraced: List, cycle_passes: int
) -> Tuple[Dict[str, float], Dict[str, str], bool]:
    """``(metrics, units, accounted)``; ``accounted`` is whether the layer
    self times plus ``unattributed`` add up to the traced wall time.
    ``cycle_passes`` is the number of passes in one cycle."""
    first: Dict[str, int] = {}
    for counts in tracer.passes[:cycle_passes]:
        for key, value in counts.items():
            first[key] = first.get(key, 0) + value
    first_cycle = traced[:cycle_passes]
    totals = tracer.totals()
    count = first.get
    metrics: Dict[str, float] = {}
    units: Dict[str, str] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = value
        units[name] = unit

    self_s = dict(zip(LAYERS, tracer.self_s))
    events_total = sum(p["sim.events"] for p in tracer.passes)
    loop_s = totals.get("sim:Simulator.run_until", 0.0) + totals.get("sim:Simulator.run", 0.0)
    put("sim.events", first["sim.events"], "count")
    put("sim.events_per_s", events_total / loop_s if loop_s else 0.0, "1/s")

    put("network.medium.transmits", count("network.medium:WirelessMedium.transmit", 0), "count")
    put("network.medium.is_busy_calls", count("network.medium:WirelessMedium.is_busy", 0), "count")
    put("network.medium.transmit_s", totals.get("network.medium:WirelessMedium.transmit", 0.0), "s")
    put(
        "network.medium.delivery_s",
        totals.get("network.medium:WirelessMedium.transmit.<locals>.<lambda>", 0.0),
        "s",
    )
    attempts = first["medium.attempts"]
    put(
        "network.medium.delivery_ratio",
        first["medium.deliveries"] / attempts if attempts else 1.0,
        "ratio",
    )
    put("network.mac.sends", first["mac.transmitted"], "count")
    put("network.mac.backoffs", first["mac.backoffs"], "count")
    put("network.tdma.frames", count("network.tdma:TdmaNetwork.run_frame", 0), "count")
    put("middleware.publishes", count("middleware:EventBroker.publish", 0), "count")
    put("sensors.reads", _sum_keys(first, "sensors:", ".read"), "count")
    put("sensors.detector_checks", _sum_keys(first, "sensors:", ".check"), "count")
    put("core.cycles", count("core:SafetyManager.run_cycle", 0), "count")
    put("core.los_switches", count("core:SafetyManager._enact", 0), "count")
    put(
        "core.cycle_us.p50",
        median(tracer.samples["core:SafetyManager.run_cycle"]) * 1e6,
        "us",
    )
    put(
        "vehicles.steps",
        count("vehicles:Vehicle.step", 0) + count("vehicles:Aircraft.step", 0),
        "count",
    )
    put("scenario.build_s", median(tracer.build_s), "s")

    put(
        "experiments.runner_overhead_s",
        totals.get("experiments:execute_run", 0.0)
        - totals.get("experiments:ScenarioSpec.build", 0.0),
        "s",
    )
    put("experiments.store_write_s", totals.get("experiments:ResultStore.add_many", 0.0), "s")
    put("experiments.store_bytes", sum(r.store_bytes for r in first_cycle), "bytes")

    spools = [r.spool for r in traced if r.spool is not None]
    put(
        "distributed.spawn_to_first_claim_s",
        median([s["spawn_to_first_claim_s"] for s in spools]),
        "s",
    )
    put(
        "distributed.queue_wait_s.p50",
        median([w for s in spools for w in s["queue_waits"]]),
        "s",
    )
    put("distributed.worker_busy_share", median([s["busy_share"] for s in spools]), "ratio")
    put("distributed.publish_s", totals.get("distributed:Spool.publish_task", 0.0), "s")
    put("distributed.ingest_s", totals.get("distributed:Spool.read_result_shard", 0.0), "s")
    put("distributed.join_s", median([s["join_s"] for s in spools]), "s")
    put("distributed.tasks", sum(r.spool["tasks"] for r in first_cycle if r.spool), "count")
    put("distributed.reclaims", sum(s["reclaims"] for s in spools), "count")
    put("distributed.idle_workers", sum(s["idle_workers"] for s in spools), "count")

    cache_gets = sum(r.cache_gets for r in first_cycle)
    cache_hits = sum(r.cache_hits for r in first_cycle)
    put("cache.gets", cache_gets, "count")
    put("cache.get_s", totals.get("cache:CacheIndex.get", 0.0), "s")
    put(
        "cache.hit_ratio",
        cache_hits / cache_gets if cache_gets else 0.0,
        "ratio",
    )
    put("cache.puts", sum(r.cache_puts for r in first_cycle), "count")
    put("cache.put_s", totals.get("cache:CacheIndex.put", 0.0), "s")

    put("observability.events_written", count("observability:EventLog.emit", 0), "count")
    put("observability.emit_s", totals.get("observability:EventLog.emit", 0.0), "s")
    put("observability.progress_writes", count("observability:write_progress", 0), "count")

    vector: Dict[str, int] = {}
    for result in first_cycle:
        for name, value in result.vector.items():
            vector[name] = vector.get(name, 0) + value
    put("vectorized.fast_cells", vector.get("fast_cells", 0), "count")
    put("vectorized.probe_cells", vector.get("probe_cells", 0), "count")
    put("vectorized.fallback_cells", vector.get("fallback_cells", 0), "count")
    vector_total = sum(
        vector.get(name, 0)
        for name in ("fast_cells", "probe_cells", "evicted_cells", "fallback_cells")
    )
    put(
        "vectorized.occupancy",
        vector.get("fast_cells", 0) / vector_total if vector_total else 0.0,
        "ratio",
    )
    put("vectorized.program_s", _sum_keys(totals, "vectorized:", "Program.run"), "s")
    put("vectorized.probe_s", sum(r.scalar_s for r in traced), "s")

    for layer in LAYERS:
        if layer != UNATTRIBUTED:
            put(f"{layer}.self_s", self_s[layer], "s")
    put("unattributed_s", self_s[UNATTRIBUTED], "s")
    put("trace.wall_s", tracer.wall_s, "s")

    untraced_rate = cells_per_s(untraced)
    put("trace.overhead", cells_per_s(traced) / untraced_rate if untraced_rate else 0.0, "ratio")

    accounted = sum(tracer.self_s)
    groups: Dict[str, float] = {}
    for layer, seconds in self_s.items():
        group = layer.split(".")[0]
        groups[group] = groups.get(group, 0.0) + seconds
    shares = sorted(groups.items(), key=lambda item: -item[1])
    print(
        f"traced wall {tracer.wall_s:.3f}s, layers + unattributed {accounted:.3f}s; shares: "
        + ", ".join(f"{group}: {seconds / tracer.wall_s:.2f}" for group, seconds in shares)
    )
    ok = abs(accounted - tracer.wall_s) <= ACCOUNTING_TOLERANCE_S * max(1, len(traced))
    return metrics, units, ok
