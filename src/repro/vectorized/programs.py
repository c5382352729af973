"""Lockstep vector programs: bit-exact multi-seed re-implementations.

A :class:`VectorProgram` advances a whole seed batch of one scenario as a
``(n_seeds, ...)`` struct-of-arrays numpy program.  The contract is strict:
for every seed the program must reproduce the scalar factory **bit for bit**
— same RNG consumption schedule, same floating-point operation order, same
int/float division sites — because the backend serialises its records with
the exact same JSON encoder as the scalar kernel and the stores are compared
byte-for-byte (probe cell at runtime, full campaigns in the tests and the
``vector-smoke`` CI job).

Safety rails, in order:

1. every program pins the sha256 of its scalar factory's source
   (:func:`factory_source_hash`); if the scenario is edited the program
   refuses to run (warn once, whole group falls back to the scalar kernel)
   until the pin is deliberately refreshed alongside the vector math;
2. ``supports_params`` gates the parameter space to the cases the lockstep
   math actually covers (e.g. RNG-drawing fault classes disqualify a
   sensor-sweep group because their draws interleave with noise draws);
3. the backend still runs one scalar *probe* cell per batch and compares
   record bytes before trusting the remaining fast-path cells.

Programs may evict individual seeds mid-flight via
:meth:`~repro.vectorized.engine.LockstepBatch.evict` and omit them from the
returned mapping; evicted seeds finish on the scalar kernel.
"""

from __future__ import annotations

import hashlib
import logging
from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from repro.experiments.spec import factory_source
from repro.vectorized.engine import LockstepBatch

logger = logging.getLogger(__name__)

__all__ = [
    "VectorProgram",
    "PROGRAMS",
    "program_for",
    "factory_source_hash",
    "register_program",
]


def factory_source_hash(spec: Any) -> Optional[str]:
    """sha256 of the scalar factory's source, or ``None`` when unavailable.

    Unlike ``ScenarioSpec.source_fingerprint`` this deliberately does *not*
    fold in the engine fingerprint: the pin must only move when the factory
    itself is edited, not on unrelated engine changes.  The source is the
    one this process first read (:func:`repro.experiments.spec.factory_source`).
    """
    source = factory_source(spec.factory)
    if source is None:
        return None
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


class VectorProgram:
    """Base class for lockstep multi-seed programs."""

    #: Registry name of the scenario this program replays.
    scenario: str = ""
    #: Pinned sha256 of ``inspect.getsource(spec.factory)``.
    source_sha256: str = ""

    def __init__(self) -> None:
        self._source_warned = False

    def supports(self, spec: Any, params: Mapping[str, Any]) -> bool:
        """Whether this program can run *spec* at *params* bit-exactly."""
        digest = factory_source_hash(spec)
        if digest != self.source_sha256:
            if not self._source_warned:
                self._source_warned = True
                logger.warning(
                    "vector program for %r is pinned to factory source %s but the "
                    "registry factory hashes to %s; falling back to the scalar "
                    "kernel (refresh the pin together with the vector math)",
                    self.scenario,
                    (self.source_sha256 or "?")[:12],
                    (digest or "?")[:12],
                )
            return False
        try:
            return bool(self.supports_params(params))
        except (KeyError, TypeError, ValueError):
            return False

    def supports_params(self, params: Mapping[str, Any]) -> bool:
        raise NotImplementedError

    def run(self, spec: Any, batch: LockstepBatch) -> Dict[int, Dict[str, Any]]:
        """Advance the batch; return ``{seed: factory_result}`` for active seeds."""
        raise NotImplementedError


# --------------------------------------------------------------------------
# E2 — sensor_validity
# --------------------------------------------------------------------------


class SensorValidityProgram(VectorProgram):
    """Lockstep replay of ``run_sensor_validity`` (E2 sensor sweeps).

    Eligible fault classes are the RNG-silent ones (``stuck_at``,
    ``permanent_offset``, ``delay`` with no drop): their injectors never draw
    from the sensor RNG, so the scalar kernel pre-draws noise in 128-sample
    chunks and the whole noise matrix can be reproduced up front.
    ``sporadic_offset``/``stochastic_offset`` draw from the same stream as
    the noise, interleaved per sample — structurally divergent, whole group
    falls back.
    """

    scenario = "sensor_validity"
    source_sha256 = "4c3beb18b8863fa0bca88b37fc217e583f638c3778eee6a3aafc80a84a5bc78b"

    #: Fault classes whose injectors are RNG-silent (``draws_rng`` False).
    RNG_SILENT_FAULTS = ("stuck_at", "permanent_offset", "delay")

    def _rig(self) -> Any:
        # Mirror of the scalar factory's rig; lockstep_safe() below is the
        # genuine capability gate — if this stack ever gains a detector the
        # vector math does not model, the program refuses the group.
        from repro.scenario import SensorRig
        from repro.sensors.detectors import RangeDetector, RateLimitDetector, StuckAtDetector

        return SensorRig(
            name="ranging",
            quantity="range",
            noise_sigma=0.3,
            detectors=lambda: [
                RangeDetector(low=0.0, high=200.0),
                RateLimitDetector(max_rate=30.0),
                StuckAtDetector(window=10, min_run=4),
            ],
        )

    def supports_params(self, params: Mapping[str, Any]) -> bool:
        if str(params["fault_class"]) not in self.RNG_SILENT_FAULTS:
            return False
        if int(params["samples"]) < 1 or float(params["period"]) <= 0.0:
            return False
        return self._rig().lockstep_safe()

    def run(self, spec: Any, batch: LockstepBatch) -> Dict[int, Dict[str, Any]]:
        from repro.sensors.abstract_sensor import _NOISE_CHUNK
        from repro.sim.rng import ChunkedNormals

        p = batch.params
        fault_class = str(p["fault_class"])
        magnitude = float(p["magnitude"])
        samples = int(p["samples"])
        period = float(p["period"])
        fault_start = float(p["fault_start"])
        true_value = float(p["true_value"])
        seeds = batch.active_seeds()
        n = len(seeds)

        # Timestamps and truth exactly as the scalar loop computes them:
        # python-float `step * period`, *scalar* np.sin per step (an array
        # np.sin may use a SIMD transcendental with different ULPs).
        now = [step * period for step in range(samples)]
        truth = np.empty(samples)
        for step in range(samples):
            truth[step] = true_value + 5.0 * np.sin(0.5 * now[step])

        sigma = 0.3  # rig noise_sigma
        # Replica i of seed s draws from default_rng(s + i) in 128-sample
        # chunks (the injector is RNG-silent for every eligible fault class),
        # so the full noise matrix is exactly the pre-drawn chunk stream.
        values: List[np.ndarray] = []
        for i in range(3):
            noise = np.empty((n, samples))
            for k, seed in enumerate(seeds):
                rng = np.random.default_rng(seed + i)
                noise[k] = ChunkedNormals(rng, chunk=_NOISE_CHUNK).predraw(samples)
            # value = float(truth_t + sigma * noise_t): multiply first, then add.
            values.append(truth[None, :] + sigma * noise)

        # Fault activation mirrors FaultActivation.is_active: start <= now.
        active = np.array([fault_start <= t for t in now], dtype=bool)
        v0 = values[0]
        if fault_class == "stuck_at":
            idx = np.flatnonzero(active)
            if idx.size:
                first = int(idx[0])
                v0 = v0.copy()
                frozen = v0[:, first].copy()
                v0[:, first:] = frozen[:, None]
        elif fault_class == "permanent_offset":
            offset = 5.0 * magnitude
            v0 = np.where(active[None, :], v0 + offset, v0)
        # "delay" leaves the value stream untouched (drop_probability == 0).
        values[0] = v0

        validities = [self._validity(vals, now) for vals in values]

        v1, v2 = values[1], values[2]
        val0, val1, val2 = validities
        # naive_mean: sum(values) / len(values), left-associated.
        naive = ((v0 + v1) + v2) / 3
        err_faulty = np.abs(v0 - truth[None, :])
        err_naive = np.abs(naive - truth[None, :])

        # validity_weighted_mean(min_validity=0.05): usable replicas only.
        # Inserting 0.0 for masked-out terms keeps the left-associated sums
        # bitwise identical (x + 0.0 == x for the finite values here).
        m0, m1, m2 = (val0 > 0.05), (val1 > 0.05), (val2 > 0.05)
        total_w = (np.where(m0, val0, 0.0) + np.where(m1, val1, 0.0)) + np.where(m2, val2, 0.0)
        numer = (
            np.where(m0, v0 * val0, 0.0) + np.where(m1, v1 * val1, 0.0)
        ) + np.where(m2, v2 * val2, 0.0)
        weighted_ok = (m0 | m1 | m2) & (total_w > 0.0)
        weighted = np.divide(numer, total_w, out=np.zeros_like(numer), where=weighted_ok)
        err_weighted = np.abs(weighted - truth[None, :])

        fault_samples = int(active.sum())
        detected = (val0[:, active] < 0.99).sum(axis=1) if fault_samples else np.zeros(n)

        results: Dict[int, Dict[str, Any]] = {}
        for k, seed in enumerate(seeds):
            coverage = (int(detected[k]) / fault_samples) if fault_samples else 0.0
            ok_row = weighted_ok[k]
            results[seed] = {
                "fault_class": fault_class,
                "detection_coverage": coverage,
                "faulty_sensor_mae": float(np.mean(err_faulty[k])),
                "naive_mean_mae": float(np.mean(err_naive[k])),
                "validity_weighted_mae": float(np.mean(err_weighted[k][ok_row])),
            }
        return results

    @staticmethod
    def _validity(vals: np.ndarray, now: List[float]) -> np.ndarray:
        """Per-sample validity for one replica's value matrix ``(n, samples)``.

        Reproduces RangeDetector + RateLimitDetector + StuckAtDetector under
        the PRODUCT fault-management policy exactly.
        """
        n, samples = vals.shape
        low, high = 0.0, 200.0
        max_rate, hard_factor = 30.0, 4.0
        window, min_run, epsilon = 10, 4, 1e-9

        # RangeDetector: dominant, fires (suspicion 1.0, invalidates) when
        # the value is not inside [low, high], NaN included — validity
        # collapses to 0.0.
        range_fired = ~((vals >= low) & (vals <= high))

        # RateLimitDetector: first sample scores 0; afterwards
        # rate = |dv| / dt, suspicion = min(1, (rate - max) / (max * (hard - 1))).
        s_rate = np.zeros((n, samples))
        if samples > 1:
            dt = np.array([now[t] - now[t - 1] for t in range(1, samples)])
            rate = np.abs(vals[:, 1:] - vals[:, :-1]) / dt[None, :]
            # Negated compare and fmin: a NaN rate scores 1.0, as the
            # scalar detector's `rate <= max_rate` test and min() give.
            over = (dt[None, :] > 0) & ~(rate <= max_rate)
            excess = (rate - max_rate) / (max_rate * (hard_factor - 1.0))
            s_rate[:, 1:] = np.where(over, np.fmin(1.0, excess), 0.0)

        # StuckAtDetector: trailing run of |diff| <= epsilon pairs; suspicion
        # min(1, (run - min_run + 1) / (window - min_run + 1)) once the
        # window holds >= min_run samples and the run reaches min_run.
        s_stuck = np.zeros((n, samples))
        run = np.ones(n, dtype=np.int64)
        for t in range(1, samples):
            equal = np.abs(vals[:, t] - vals[:, t - 1]) <= epsilon
            run = np.where(equal, np.minimum(run + 1, window), 1)
            if t + 1 >= min_run:
                suspicion = np.minimum(1.0, (run - min_run + 1) / (window - min_run + 1))
                s_stuck[:, t] = np.where(run >= min_run, suspicion, 0.0)

        # PRODUCT policy: validity = clamp((1 - s_rate) * (1 - s_stuck));
        # a dominant (range) detection short-circuits to 0.0.
        validity = (1.0 - s_rate) * (1.0 - s_stuck)
        validity = np.maximum(0.0, np.minimum(1.0, validity))
        return np.where(range_fired, 0.0, validity)


# --------------------------------------------------------------------------
# E4 — tdma_convergence
# --------------------------------------------------------------------------


class TdmaConvergenceProgram(VectorProgram):
    """Lockstep replay of ``run_tdma_convergence`` (E4 grid, no churn).

    The slot matrix is held as ``(n_seeds, n_nodes)`` and convergence /
    collider detection are vectorized per frame; collision *redraws* call
    the scalar network's ``redraw_slot`` with each seed's own
    ``default_rng(seed)``, in the (string-sorted) node order it uses, so the
    RNG streams stay bit-identical.  ``churn=True`` adds a data-dependent joiner
    event — structurally divergent, not eligible.
    """

    scenario = "tdma_convergence"
    source_sha256 = "c9fef4bd1809f7ac425c0cf05ca20efd82a078941cf9a606ef90a8f1b0a8b254"

    MAX_FRAMES = 3000

    def supports_params(self, params: Mapping[str, Any]) -> bool:
        if bool(params.get("churn", False)):
            return False
        return int(params["rows"]) >= 1 and int(params["cols"]) >= 1 and int(params["slots"]) >= 1

    def run(self, spec: Any, batch: LockstepBatch) -> Dict[int, Dict[str, Any]]:
        from repro.network.tdma import grid_topology, redraw_slot

        p = batch.params
        rows, cols, slots = int(p["rows"]), int(p["cols"]), int(p["slots"])
        seeds = batch.active_seeds()

        adjacency = grid_topology(rows, cols)
        node_ids = list(adjacency)  # insertion order == scalar add_node order
        index_of = {nid: j for j, nid in enumerate(node_ids)}
        n_nodes = len(node_ids)
        neighbor_idx = [[index_of[nb] for nb in adjacency[nid]] for nid in node_ids]

        # One-or-two-hop interference sets, as TdmaNetwork._interference_sets.
        interference: List[List[int]] = []
        for nid in node_ids:
            interf = set(adjacency[nid])
            for nb in adjacency[nid]:
                interf |= adjacency[nb]
            interf.discard(nid)
            interference.append(sorted(index_of[other] for other in interf))

        # Directed edge arrays grouped by source node for reduceat.
        esrc: List[int] = []
        edst: List[int] = []
        group_offsets: List[int] = []
        nodes_with_edges: List[int] = []
        for j in range(n_nodes):
            if interference[j]:
                group_offsets.append(len(esrc))
                nodes_with_edges.append(j)
                for other in interference[j]:
                    esrc.append(j)
                    edst.append(other)
        esrc_arr = np.asarray(esrc, dtype=np.intp)
        edst_arr = np.asarray(edst, dtype=np.intp)

        # Collision reactions walk colliders in sorted-id order ("n0_10" <
        # "n0_2": string sort, exactly as the scalar run_frame does).
        redraw_order = [index_of[nid] for nid in sorted(node_ids)]

        rngs = {seed: np.random.default_rng(seed) for seed in seeds}
        slot_matrix = np.empty((len(seeds), n_nodes), dtype=np.int64)
        for k, seed in enumerate(seeds):
            rng = rngs[seed]
            for j in range(n_nodes):
                slot_matrix[k, j] = int(rng.integers(0, slots))

        frames: Dict[int, Optional[int]] = {}
        alive = list(range(len(seeds)))
        for frame in range(self.MAX_FRAMES):
            if not alive:
                break
            current = slot_matrix[alive]
            if esrc_arr.size:
                conflict = (current[:, esrc_arr] == current[:, edst_arr]).any(axis=1)
            else:
                conflict = np.zeros(len(alive), dtype=bool)
            survivors = []
            for row, k in enumerate(alive):
                if conflict[row]:
                    survivors.append(k)
                else:
                    frames[seeds[k]] = frame
            alive = survivors
            if not alive:
                break
            current = slot_matrix[alive]
            equal = (current[:, esrc_arr] == current[:, edst_arr]).astype(np.uint8)
            collided = np.zeros((len(alive), n_nodes), dtype=bool)
            collided[:, nodes_with_edges] = np.maximum.reduceat(
                equal, np.asarray(group_offsets, dtype=np.intp), axis=1
            ).astype(bool)
            # Busy slots are what listeners heard *during* the frame — a
            # frame-start snapshot — while re-draws land in the live matrix.
            for row, k in enumerate(alive):
                rng = rngs[seeds[k]]
                flags = collided[row].tolist()
                snapshot = slot_matrix[k].tolist()
                for j in redraw_order:
                    if flags[j]:
                        busy = {snapshot[jj] for jj in neighbor_idx[j]}
                        slot_matrix[k, j] = redraw_slot(rng, slots, snapshot[j], busy)
        for k in alive:
            row = slot_matrix[k]
            still = bool((row[esrc_arr] == row[edst_arr]).any()) if esrc_arr.size else False
            frames[seeds[k]] = None if still else self.MAX_FRAMES

        results: Dict[int, Dict[str, Any]] = {}
        for seed in seeds:
            converged = frames[seed]
            results[seed] = {
                "frames_to_converge": converged,
                "converged": converged is not None,
            }
        return results


# --------------------------------------------------------------------------
# demo/random_walk
# --------------------------------------------------------------------------


class RandomWalkProgram(VectorProgram):
    """Lockstep replay of ``run_random_walk``: one standard-normal block per
    seed, cumulative sum along the step axis (sequential per row, identical
    to the scalar 1-D cumsum), per-seed metrics off contiguous row views."""

    scenario = "demo/random_walk"
    source_sha256 = "e7a03806d08af66ac8c8e39174287be92b8ba474f283c0796e5d0f0cd8ea00e1"

    def supports_params(self, params: Mapping[str, Any]) -> bool:
        return int(params["steps"]) >= 1

    def run(self, spec: Any, batch: LockstepBatch) -> Dict[int, Dict[str, Any]]:
        p = batch.params
        steps = int(p["steps"])
        drift = float(p["drift"])
        sigma = float(p["sigma"])
        seeds = batch.active_seeds()

        noise = np.empty((len(seeds), steps))
        for k, seed in enumerate(seeds):
            noise[k] = np.random.default_rng(seed).standard_normal(steps)
        walks = np.cumsum(drift + sigma * noise, axis=1)

        results: Dict[int, Dict[str, Any]] = {}
        for k, seed in enumerate(seeds):
            walk = walks[k]
            results[seed] = {
                "final_position": float(walk[-1]),
                "max_excursion": float(np.max(np.abs(walk))),
                "crossings": int(np.sum(np.signbit(walk[:-1]) != np.signbit(walk[1:]))),
            }
        return results


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------

PROGRAMS: Dict[str, VectorProgram] = {}


def register_program(program: VectorProgram) -> VectorProgram:
    """Install *program* for its scenario (tests swap in instrumented ones)."""
    PROGRAMS[program.scenario] = program
    return program


for _program in (SensorValidityProgram(), TdmaConvergenceProgram(), RandomWalkProgram()):
    register_program(_program)


def program_for(spec: Any, params: Mapping[str, Any]) -> Optional[VectorProgram]:
    """The registered program able to run *spec* at *params*, or ``None``."""
    program = PROGRAMS.get(getattr(spec, "name", None))
    if program is None or not program.supports(spec, params):
        return None
    return program
