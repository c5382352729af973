"""Self-stabilising TDMA slot allocation for dynamic wireless ad hoc networks.

Section V-A.2: "We propose a self-stabilizing MAC algorithm that guarantees
satisfying these severe timing requirements" — i.e. starting from *any*
initial slot assignment (including one left over after topology changes), the
network converges to a collision-free TDMA schedule without external time
sources.

The model abstracts the radio at slot granularity: within each TDMA frame,
every node transmits in its chosen slot.  Two nodes collide when they are
within interference range (two hops) and use the same slot.  Receivers that
observe a collision report the collided slot in their own transmission during
the next frame; a transmitter that learns its slot collided re-draws a slot
uniformly at random from the slots it heard as free.  This is the classic
randomised self-stabilising allocation scheme the paper builds on [25].

The E4 experiment measures the number of frames until convergence as a
function of node count, slot count and churn.

Hot-path notes: every ``tdma_convergence`` cell spends nearly all of its time
in :meth:`TdmaNetwork.run_frame`, which is written so that its random draws
come off the generator in one fixed order.

* A re-draw takes ``candidates[int(rng.integers(len(candidates)))]``.  For a
  list ``c`` that is the same number, and advances the generator by the same
  amount, as ``rng.choice(c)`` (``choice`` draws its index with
  ``integers``), at about a quarter of the cost.
  ``tests/test_tdma_kernel.py`` checks the identity, so a numpy release that
  breaks it fails a named test instead of drifting every fingerprint.
  :func:`redraw_slot` holds the rule; the lockstep
  :class:`~repro.vectorized.programs.TdmaConvergenceProgram` calls it too.
* A frame snapshots every node's slot once.  Only colliders ever need the
  slots their neighbours were heard on, so the busy set is built for them
  alone, from the snapshot, at re-draw time.  No per-node or per-listener
  state is rebuilt each frame.
* With ``feedback_loss_probability > 0`` every collided pair ``(a, b)``
  draws one ``random()`` for ``a`` and then one for ``b``.  Pairs are walked
  slot by slot (slots in order of first use along the node order), then in
  node order within a slot; changing that order changes every lossy-feedback
  trajectory.  Re-draws then follow in sorted-id order, for every trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np


@dataclass
class TdmaConfig:
    """TDMA parameters."""

    slots_per_frame: int = 16
    slot_duration: float = 0.005
    #: Probability that a collision report is lost (models imperfect feedback).
    feedback_loss_probability: float = 0.0

    def __post_init__(self) -> None:
        if self.slots_per_frame < 1:
            raise ValueError("slots_per_frame must be >= 1")
        if self.slot_duration <= 0:
            raise ValueError("slot_duration must be positive")
        if not 0.0 <= self.feedback_loss_probability < 1.0:
            raise ValueError("feedback_loss_probability must be in [0, 1)")

    @property
    def frame_duration(self) -> float:
        return self.slots_per_frame * self.slot_duration


def redraw_slot(rng: np.random.Generator, slots_per_frame: int, own: int,
                busy: Set[int]) -> int:
    """Draw a new slot uniformly from the slots heard free (not ``busy``,
    not ``own``), or from every slot when none is free."""
    candidates = [s for s in range(slots_per_frame) if s not in busy and s != own]
    if not candidates:
        candidates = list(range(slots_per_frame))
    return candidates[int(rng.integers(len(candidates)))]


class TdmaNode:
    """One node participating in the self-stabilising TDMA algorithm."""

    def __init__(self, node_id: str, config: TdmaConfig, rng: np.random.Generator,
                 slot: Optional[int] = None):
        self.node_id = node_id
        self.config = config
        self.rng = rng
        self.slot = int(slot) if slot is not None else int(rng.integers(0, config.slots_per_frame))
        self.slot_changes = 0

    def react_to_collision(self, busy: Set[int]) -> None:
        """Re-draw the transmission slot after learning of a collision;
        ``busy`` holds the slots neighbours were heard on during the frame."""
        self.slot = redraw_slot(self.rng, self.config.slots_per_frame, self.slot, busy)
        self.slot_changes += 1


class TdmaNetwork:
    """Runs the slot-level TDMA simulation over an explicit topology.

    ``adjacency`` maps node ids to the set of one-hop neighbours.  Collisions
    are evaluated against the *interference* relation: two transmitters
    conflict if they share a neighbour or are neighbours themselves (the
    hidden-terminal constraint).
    """

    def __init__(
        self,
        config: Optional[TdmaConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        self.config = config or TdmaConfig()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.nodes: Dict[str, TdmaNode] = {}
        self.adjacency: Dict[str, Set[str]] = {}
        self.frames_elapsed = 0
        self.collision_history: List[int] = []
        #: node -> one-or-two-hop interference set, rebuilt after topology
        #: changes so the per-frame conflict checks are set-membership tests
        #: instead of per-pair set intersections.
        self._interference_cache: Optional[Dict[str, Set[str]]] = None

    # ----------------------------------------------------------------- topology
    def add_node(self, node_id: str, neighbors: Optional[Set[str]] = None,
                 slot: Optional[int] = None) -> TdmaNode:
        """Add a node (join); links are made symmetric automatically."""
        node = TdmaNode(node_id, self.config, self.rng, slot=slot)
        self.nodes[node_id] = node
        self.adjacency.setdefault(node_id, set())
        for neighbor in neighbors or set():
            if neighbor in self.nodes:
                self.adjacency[node_id].add(neighbor)
                self.adjacency.setdefault(neighbor, set()).add(node_id)
        self._interference_cache = None
        return node

    def remove_node(self, node_id: str) -> None:
        """Remove a node (leave/crash)."""
        self.nodes.pop(node_id, None)
        self.adjacency.pop(node_id, None)
        for peers in self.adjacency.values():
            peers.discard(node_id)
        self._interference_cache = None

    def add_link(self, a: str, b: str) -> None:
        self.adjacency.setdefault(a, set()).add(b)
        self.adjacency.setdefault(b, set()).add(a)
        self._interference_cache = None

    def remove_link(self, a: str, b: str) -> None:
        self.adjacency.get(a, set()).discard(b)
        self.adjacency.get(b, set()).discard(a)
        self._interference_cache = None

    # --------------------------------------------------------------- execution
    def conflicting_pairs(self) -> List[Tuple[str, str]]:
        """Pairs of nodes whose current slots conflict under interference."""
        conflicts = []
        ids = sorted(self.nodes)
        nodes = self.nodes
        interference = self._interference_sets()
        for i, a in enumerate(ids):
            slot_a = nodes[a].slot
            interferers = interference[a]
            for b in ids[i + 1:]:
                if nodes[b].slot == slot_a and b in interferers:
                    conflicts.append((a, b))
        return conflicts

    def is_converged(self) -> bool:
        """True when the current allocation is collision-free."""
        nodes = self.nodes
        interference = self._interference_sets()
        by_slot: Dict[int, List[str]] = {}
        for node_id, node in nodes.items():
            peers = by_slot.get(node.slot)
            if peers is None:
                by_slot[node.slot] = [node_id]
                continue
            interferers = interference[node_id]
            if any(other in interferers for other in peers):
                return False
            peers.append(node_id)
        return True

    def run_frame(self) -> int:
        """Simulate one TDMA frame; returns the number of collided slots heard.

        Per slot: interfering transmitters that share it are in collision.
        At frame end, transmitters informed of a collision in their slot
        (feedback may be lost) re-draw a slot from those their neighbours
        were not heard on during the frame.
        """
        self.frames_elapsed += 1
        slot_of = {node_id: node.slot for node_id, node in self.nodes.items()}
        slot_to_transmitters: Dict[int, List[str]] = {}
        for node_id, slot in slot_of.items():
            slot_to_transmitters.setdefault(slot, []).append(node_id)

        colliders: Set[str] = set()
        total_collided_slots = 0
        interference = self._interference_sets()
        for transmitters in slot_to_transmitters.values():
            if len(transmitters) < 2:
                continue
            # A transmitter learns of the collision from any neighbour that
            # observed it (collision report piggy-backed on the next frame;
            # modelled here as end-of-frame feedback).
            for a_index, a in enumerate(transmitters):
                interferers = interference[a]
                for b in transmitters[a_index + 1:]:
                    if b in interferers:
                        total_collided_slots += 1
                        for transmitter in (a, b):
                            if self._feedback_delivered():
                                colliders.add(transmitter)
        # Sorted so the re-draw RNG order is independent of string-hash
        # randomisation: physics must not depend on PYTHONHASHSEED.
        adjacency = self.adjacency
        for node_id in sorted(colliders):
            busy = {slot_of[peer] for peer in adjacency.get(node_id, ()) if peer in slot_of}
            self.nodes[node_id].react_to_collision(busy)
        self.collision_history.append(total_collided_slots)
        return total_collided_slots

    def run_until_converged(self, max_frames: int = 1000) -> Optional[int]:
        """Run frames until convergence; returns the frame count or ``None``."""
        for frame in range(max_frames):
            if self.is_converged():
                return frame
            self.run_frame()
        return None if not self.is_converged() else max_frames

    # --------------------------------------------------------------- internals
    def _interference_sets(self) -> Dict[str, Set[str]]:
        """Per-node one-or-two-hop interference sets (cached until the
        topology changes): ``b in sets[a]`` when ``a`` and ``b`` are
        neighbours or share a neighbour.
        """
        cache = self._interference_cache
        if cache is None:
            cache = {}
            for node_id in self.nodes:
                neighbors = self.adjacency.get(node_id, set())
                interferers = set(neighbors)
                for neighbor in neighbors:
                    interferers |= self.adjacency.get(neighbor, set())
                interferers.discard(node_id)
                cache[node_id] = interferers
            self._interference_cache = cache
        return cache

    def _feedback_delivered(self) -> bool:
        p = self.config.feedback_loss_probability
        if p <= 0:
            return True
        return self.rng.random() >= p


def grid_topology(rows: int, cols: int) -> Dict[str, Set[str]]:
    """Convenience: 4-connected grid adjacency used by tests and benches."""
    adjacency: Dict[str, Set[str]] = {}
    def name(r: int, c: int) -> str:
        return f"n{r}_{c}"
    for r in range(rows):
        for c in range(cols):
            peers = set()
            if r > 0:
                peers.add(name(r - 1, c))
            if r < rows - 1:
                peers.add(name(r + 1, c))
            if c > 0:
                peers.add(name(r, c - 1))
            if c < cols - 1:
                peers.add(name(r, c + 1))
            adjacency[name(r, c)] = peers
    return adjacency
