"""The benchmark's workloads and the pass every one of them repeats.

A workload is a fixed set of *campaigns*.  A *pass* is one of them run cold —
fresh store, fresh content-addressed cache, and for the spool a fresh spool
with two spawned workers — followed by *replays* of it into fresh stores
against the now-warm cache.  A *cycle* runs every campaign of the set once,
in an order drawn from ``--seed``; a run repeats cycles until its time is up,
so every campaign is timed many times and read as the median of its samples
(see ``measures.py``).

Every store line is checked against the digest of the same cell's line in
an inline serial store, pinned in ``digests.json`` (regenerate with
``python3 perfbench/pin.py`` when physics changes on purpose).

Inputs come from ``--seed``, which orders the cycles.  Every seed runs the
same pinned cells, so a run's work does not depend on which cells a seed
drew.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.distributed import CacheIndex, SpoolBackend
from repro.experiments.registry import load_builtin_scenarios
from repro.experiments.runner import InProcessBackend, ParallelCampaignRunner
from repro.experiments.store import ResultStore
from repro.observability.events import read_events
from repro.vectorized import VectorBatchBackend

DIGESTS_PATH = Path(__file__).with_name("digests.json")

SPOOL_WORKERS = 2
SPOOL_TASK_SIZE = 8


@dataclass(frozen=True)
class Campaign:
    scenario: str
    params: Mapping[str, Any]
    seeds: Tuple[int, ...]

    @property
    def key(self) -> str:
        params = json.dumps(dict(self.params), sort_keys=True)
        return f"{self.scenario}|{params}|{self.seeds[0]}+{len(self.seeds)}"


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str  # "inline" | "spool" | "vector"
    #: ``(scenario, params, cells)`` on the seeds ``0 .. cells - 1``: inline
    #: workloads run each cell as a campaign of its own, the others run one
    #: campaign of all of them per kind.
    kinds: Tuple[Tuple[str, Mapping[str, Any], int], ...]
    #: Warm-cache replays per pass.
    replays: int = 1

    def campaigns(self) -> List[Campaign]:
        """The workload's set of distinct campaigns."""
        if self.backend == "inline":
            return [
                Campaign(name, params, (cell_seed,))
                for name, params, cells in self.kinds
                for cell_seed in range(cells)
            ]
        return [Campaign(name, params, tuple(range(cells))) for name, params, cells in self.kinds]

    def cycles(self, seed: int) -> Iterator[List[Campaign]]:
        """Endless cycles, each every campaign once in a seeded order."""
        campaigns = self.campaigns()
        rng = random.Random(seed)
        while True:
            yield rng.sample(campaigns, len(campaigns))


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            # The medium and MAC do most of the work: the three shared-spectrum
            # scenarios the medium speed-up targets, at a fifth of their
            # default durations so every cell is timed many times.
            name="spectrum_cells",
            backend="inline",
            kinds=(
                (
                    "urban_grid",
                    {
                        "streets": 3,
                        "followers": 3,
                        "duration": 6.0,
                        "brake_start": 3.0,
                        "brake_stagger": 1.2,
                    },
                    1,
                ),
                ("corridor", {"intersections": 3, "duration": 18.0}, 1),
                ("mixed_airspace", {"ground_nodes": 8, "duration": 40.0}, 1),
            ),
            replays=4,
        ),
        Workload(
            # The safety kernel, sensors and vehicles carry the cost and the
            # network does almost none, so a medium change must not move it.
            name="kernel_cells",
            backend="inline",
            kinds=(
                ("demo/safety_kernel", {"duration": 200.0}, 1),
                ("sensor_validity", {"fault_class": "sporadic_offset", "samples": 2000}, 1),
                ("sensor_validity", {"fault_class": "delay", "samples": 2000}, 1),
                ("avionics/in_trail", {}, 1),
                ("avionics/crossing", {}, 1),
                ("avionics/level_change", {}, 1),
            ),
            replays=4,
        ),
        Workload(
            # Cheap cells on a 2-worker spool: spawn, claim, shard, ingest and
            # cache writes, then cache reads, dominate.
            name="spool_campaign",
            backend="spool",
            kinds=(("tdma_convergence", {"rows": 6, "cols": 6}, 200),),
            replays=3,
        ),
        Workload(
            # The only workload where repro.vectorized does the work, one scalar
            # probe per batch included.
            name="vector_batch",
            backend="vector",
            kinds=(
                ("sensor_validity", {"fault_class": "stuck_at", "samples": 2000}, 64),
                ("tdma_convergence", {"rows": 12, "cols": 12, "slots": 60}, 64),
            ),
            replays=2,
        ),
    )
}


# ---------------------------------------------------------------- expectations
def line_digest(line: str) -> str:
    return hashlib.sha256(line.encode("utf-8")).hexdigest()


def run_keys(campaign: Campaign) -> List[str]:
    """Canonical keys of a campaign's cells, in run-list order."""
    spec = load_builtin_scenarios().get(campaign.scenario)
    return [run.key for run in spec.runs(params=dict(campaign.params), seeds=list(campaign.seeds))]


def load_pins() -> Dict[str, str]:
    with DIGESTS_PATH.open("r", encoding="utf-8") as handle:
        return json.load(handle)


def reference_digests(campaign: Campaign, path: Path) -> List[str]:
    """Line digests of an inline serial store of ``campaign``."""
    ParallelCampaignRunner(store=ResultStore(path)).run(
        campaign.scenario, params=dict(campaign.params), seeds=list(campaign.seeds)
    )
    return [line_digest(line) for line in path.read_text("utf-8").splitlines()]


def expectations(workload: Workload) -> Dict[str, List[Optional[str]]]:
    """What every store line of each campaign must hash to, by campaign key."""
    pins = load_pins()
    return {c.key: [pins.get(key) for key in run_keys(c)] for c in workload.campaigns()}


# ------------------------------------------------------------------------ pass
@dataclass
class PassResult:
    key: str
    cells: int = 0
    cold_s: float = 0.0
    replay_s: List[float] = field(default_factory=list)
    #: Wall seconds per cell of the cold pass: each cell's ``RunRecord``
    #: duration inline (by seed), a spool task's elapsed time over its cells
    #: (by task), the pass over its cells on the vector backend (whose
    #: per-record durations mix the batch with its scalar probe).
    cell_s: Dict[str, float] = field(default_factory=dict)
    checked: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    store_bytes: int = 0
    cache_gets: int = 0
    cache_hits: int = 0
    cache_puts: int = 0
    vector: Dict[str, int] = field(default_factory=dict)
    #: RunRecord seconds of cells the vector backend ran on the scalar kernel.
    scalar_s: float = 0.0
    spool: Optional[Dict[str, Any]] = None
    #: Speed-probe seconds around the pass (``speed.SpeedProbe.read``).
    probe_s: float = 0.0


def _make_backend(workload: Workload, pass_dir: Path):
    if workload.backend == "spool":
        return SpoolBackend(
            pass_dir / "spool",
            workers=SPOOL_WORKERS,
            task_size=SPOOL_TASK_SIZE,
            timeout=120.0,
        )
    if workload.backend == "vector":
        return VectorBatchBackend()
    return InProcessBackend()


def _run_campaign(
    campaign: Campaign,
    expected: Sequence[Optional[str]],
    store: Path,
    cache: CacheIndex,
    backend: Any,
    result: PassResult,
) -> Tuple[float, Any]:
    """Run ``campaign`` into ``store`` and check it; ``(wall seconds, outcome)``."""
    outcome = None
    started = time.perf_counter()
    try:
        outcome = ParallelCampaignRunner(
            store=ResultStore(store), cache=cache, backend=backend
        ).run(campaign.scenario, params=dict(campaign.params), seeds=list(campaign.seeds))
    except Exception as exc:  # noqa: BLE001 — a failing campaign is a counted failure
        result.errors.append(f"{campaign.scenario}: {type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - started
    lines = store.read_text("utf-8").splitlines() if store.exists() else []
    result.checked += len(expected)
    result.failed += sum(
        1
        for index, digest in enumerate(expected)
        if digest is None or index >= len(lines) or line_digest(lines[index]) != digest
    )
    result.failed += max(0, len(lines) - len(expected))
    return elapsed, outcome


def run_pass(
    workload: Workload,
    campaign: Campaign,
    expected: Sequence[Optional[str]],
    pass_dir: Path,
    tracer=None,
) -> PassResult:
    """One cold campaign plus its warm-cache replays, all verified."""
    pass_dir.mkdir(parents=True)
    result = PassResult(key=campaign.key, cells=len(campaign.seeds))
    cache = CacheIndex(pass_dir / "cache")
    backend = _make_backend(workload, pass_dir)
    cold = pass_dir / "cold.jsonl"

    if tracer is not None:
        tracer.begin()
    try:
        result.cold_s, outcome = _run_campaign(campaign, expected, cold, cache, backend, result)
        cold_done = time.time()
        for replay in range(workload.replays):
            store = pass_dir / f"replay-{replay}.jsonl"
            result.replay_s.append(
                _run_campaign(campaign, expected, store, cache, backend, result)[0]
            )
    finally:
        if tracer is not None:
            tracer.end()
    # The verification reads above ran inside the traced window; they are
    # the benchmark's own work and land in ``unattributed``.
    result.store_bytes = cold.stat().st_size if cold.exists() else 0
    result.cache_gets = cache.hits + cache.misses
    result.cache_hits = cache.hits
    result.cache_puts = cache.puts
    records = outcome.records if outcome is not None else []
    if workload.backend == "spool":
        result.spool = spool_health(pass_dir / "spool", result.cold_s, cold_done)
        result.cell_s = result.spool.pop("cell_s")
    elif workload.backend == "vector":
        result.vector = {
            name: value for name, value in vars(backend.stats).items() if isinstance(value, int)
        }
        result.scalar_s = sum(r.duration for r in records if r.executed_by == "scalar")
        result.cell_s = {"batch": result.cold_s / result.cells}
    else:
        result.cell_s = {
            str(r.seed): r.duration for r in records if r.executed_by not in ("cache", "store")
        }
    shutil.rmtree(pass_dir, ignore_errors=True)
    return result


def spool_health(spool_root: Path, campaign_s: float, done_wall: float) -> Dict[str, Any]:
    """Timings and health of one spool campaign, read from its ``events.jsonl``."""
    events = read_events(spool_root / "events.jsonl")
    start = next((e for e in events if e["kind"] == "campaign_start"), None)
    complete = next((e for e in events if e["kind"] == "campaign_complete"), None)
    claimed: Dict[str, int] = {}
    exits: Dict[str, Dict[str, Any]] = {}
    waits: List[float] = []
    cell_s: Dict[str, float] = {}
    seen_tasks: set = set()
    reclaims = 0
    for event in events:
        kind, source = event["kind"], event.get("source")
        if kind == "task_claimed":
            claimed[source] = claimed.get(source, 0) + 1
            if start is not None and event["task"] not in seen_tasks:
                seen_tasks.add(event["task"])
                waits.append(event["ts"] - start["ts"])
        elif kind == "task_completed" and event.get("cells"):
            cell_s[event["task"]] = event["elapsed_s"] / event["cells"]
        elif kind == "task_reclaimed":
            reclaims += 1
        elif kind == "worker_exit":
            exits[source] = event
    claim_times = [e["ts"] for e in events if e["kind"] == "task_claimed"]
    # A worker with no exit event was terminated by the coordinator's join
    # timeout; the join then lasted until the campaign returned.
    if complete is None:
        join_s = 0.0
    elif len(exits) < SPOOL_WORKERS:
        join_s = done_wall - complete["ts"]
    else:
        join_s = max((e["ts"] for e in exits.values()), default=complete["ts"]) - complete["ts"]
    busy_s = sum(e.get("busy_s", 0.0) for e in exits.values())
    return {
        "spawn_to_first_claim_s": (
            min(claim_times) - start["ts"] if start is not None and claim_times else 0.0
        ),
        "queue_waits": waits,
        "tasks": int(start.get("tasks", 0)) if start is not None else 0,
        "reclaims": reclaims,
        "idle_workers": SPOOL_WORKERS - len(claimed),
        "join_s": join_s,
        "busy_share": busy_s / (SPOOL_WORKERS * campaign_s) if campaign_s > 0 else 0.0,
        "cell_s": cell_s,
    }
