"""Lockstep vector programs: multi-seed forms of scalar factories.

A :class:`VectorProgram` advances a whole seed batch of one scenario as a
``(n_seeds, ...)`` struct-of-arrays numpy program.  The contract is strict:
for every seed the program must reproduce the scalar factory **bit for bit**
— same RNG consumption schedule, same floating-point operation order, same
int/float division sites — because the backend serialises its records with
the exact same JSON encoder as the scalar kernel and the stores are compared
byte-for-byte (probe cell at runtime, full campaigns in the tests and the
``vector-smoke`` CI job).

There are two kinds of program:

* E2 (``sensor_validity``) calls the block sweep its factory calls
  (:mod:`repro.scenario.sensor_sweep`) with the whole batch: one
  implementation, nothing copied, nothing pinned;
* E4 (``tdma_convergence``) and ``demo/random_walk`` re-implement their
  factories in numpy, and each pins its factory's source.

Safety rails, in order:

1. a re-implementing program pins the sha256 of its scalar factory's
   source (:func:`factory_source_hash`); if the scenario is edited the
   program refuses to run (warn once, whole group falls back to the scalar
   kernel) until the pin is deliberately refreshed alongside the vector
   math;
2. ``supports_params`` gates the parameter space to the cases the lockstep
   math actually covers (e.g. E4's ``churn`` adds a data-dependent joiner);
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
    #: Pinned sha256 of ``inspect.getsource(spec.factory)``; ``None`` for a
    #: program that runs the code its factory runs, which has nothing to pin.
    source_sha256: Optional[str] = None

    def __init__(self) -> None:
        self._source_warned = False

    def supports(self, spec: Any, params: Mapping[str, Any]) -> bool:
        """Whether this program can run *spec* at *params* bit-exactly."""
        digest = factory_source_hash(spec) if self.source_sha256 is not None else None
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
    """E2 seed batches: the factory's own block sweep, over the whole batch.

    :func:`repro.scenario.sensor_sweep.sensor_validity_sweep` is the code the
    ``sensor_validity`` factory runs for one seed, so there is no mirror and
    no source pin.  Every fault class has a block form, since none can drop
    a sample; an unknown one falls back whole to fail as the factory does.
    """

    scenario = "sensor_validity"

    def supports_params(self, params: Mapping[str, Any]) -> bool:
        from repro.sensors.faults import FaultClass

        return str(params["fault_class"]) in {fc.value for fc in FaultClass}

    def run(self, spec: Any, batch: LockstepBatch) -> Dict[int, Dict[str, Any]]:
        from repro.scenario.sensor_sweep import sensor_validity_sweep

        seeds = batch.active_seeds()
        return dict(zip(seeds, sensor_validity_sweep(seeds, **batch.params)))


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
