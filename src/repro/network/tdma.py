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
in :meth:`TdmaNetwork.run_frame`.  Its kernel works on node indices (join
order) and draws from the generator in one fixed order.

* Slots live in one list.  Per topology the network holds each node's
  neighbour indices, its one-or-two-hop interference set as a bitmask, and
  the re-draw order: indices by sorted id (``"n0_10"`` before ``"n0_2"``),
  so physics does not depend on ``PYTHONHASHSEED``.  The tables are rebuilt
  only when the topology changes; a grid's are built once per process per
  ``(rows, cols)`` (:meth:`TdmaNetwork.grid`).
* One conflict pass per frame: OR each node's bit into its slot's mask;
  node ``j`` collided when ``by_slot[slot[j]] & interference[j]``.  The
  colliders are also the convergence test, and half their summed popcounts
  is the pair count in ``collision_history`` (links are symmetric).
* A re-draw takes the ``k``-th slot heard free (not busy, not its own), or
  of all slots when none is free, with ``k = integers(free)``: the number
  ``rng.choice`` on :func:`redraw_slot`'s candidate list picks, with the
  same generator advance, without the list.  Busy slots are the frame-start
  slots; re-draws land in the live list, in re-draw order.
* With lossless feedback every draw, initial slots included, comes off
  :class:`~repro.sim.rng.ChunkedIntegers`: the words scalar ``integers``
  calls read, fetched 64 at a time.  With ``feedback_loss_probability > 0``
  a ``random()`` per collided transmitter interleaves with the slot draws,
  so draws stay scalar: each collided pair ``(a, b)`` draws for ``a``, then
  ``b``, walking slots in order of first use along the node order, then
  node order within a slot.  Changing that order changes every
  lossy-feedback trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.sim.rng import ChunkedIntegers


@dataclass
class TdmaConfig:
    """TDMA parameters."""

    slots_per_frame: int = 16
    #: Probability that a collision report is lost (models imperfect feedback).
    feedback_loss_probability: float = 0.0

    def __post_init__(self) -> None:
        if self.slots_per_frame < 1:
            raise ValueError("slots_per_frame must be >= 1")
        if not 0.0 <= self.feedback_loss_probability < 1.0:
            raise ValueError("feedback_loss_probability must be in [0, 1)")


def _kth_free(taken: int, slots_per_frame: int, draw: Callable[[int], int]) -> int:
    """The ``draw(free)``-th slot not in the ``taken`` bitmask, or the
    ``draw(slots_per_frame)``-th slot when every slot is taken."""
    free = ((1 << slots_per_frame) - 1) & ~taken
    count = free.bit_count()
    if not count:
        free, count = (1 << slots_per_frame) - 1, slots_per_frame
    for _ in range(draw(count)):
        free &= free - 1
    return (free & -free).bit_length() - 1


def redraw_slot(rng: np.random.Generator, slots_per_frame: int, own: int,
                busy: Set[int]) -> int:
    """Draw a new slot uniformly from the slots heard free (not ``busy``,
    not ``own``), or from every slot when none is free."""
    taken = 1 << own
    for slot in busy:
        if 0 <= slot < slots_per_frame:
            taken |= 1 << slot
    return _kth_free(taken, slots_per_frame, lambda n: int(rng.integers(n)))


class TdmaNode:
    """One node of a :class:`TdmaNetwork`: a view of its row in the
    network's slot tables."""

    __slots__ = ("node_id", "_network", "_index")

    def __init__(self, node_id: str, network: "TdmaNetwork", index: int):
        self.node_id = node_id
        self._network = network
        self._index = index

    @property
    def slot(self) -> int:
        return self._network._slots[self._index]

    @slot.setter
    def slot(self, value: int) -> None:
        self._network._set_slot(self._index, value)

    @property
    def slot_changes(self) -> int:
        return self._network._changes[self._index]

    def _detach(self) -> None:
        """Keep this node's last values once the network no longer holds it."""
        self._network = _Detached(self.slot, self.slot_changes)
        self._index = 0


class _Detached:
    """The one-row slot table of a node that left its network."""

    __slots__ = ("_slots", "_changes")

    def __init__(self, slot: int, changes: int):
        self._slots = [slot]
        self._changes = [changes]

    def _set_slot(self, index: int, value: int) -> None:
        self._slots[index] = int(value)


class _Topology:
    """Index tables of one topology over one node order (immutable)."""

    __slots__ = ("neighbors", "interference", "order", "by_order", "bits")

    def __init__(self, ids: List[str], adjacency: Dict[str, Set[str]]):
        index = {node_id: j for j, node_id in enumerate(ids)}
        neighbors: List[Tuple[int, ...]] = []
        interference: List[int] = []
        for j, node_id in enumerate(ids):
            peers = adjacency.get(node_id, set())
            reach = set(peers)
            for peer in peers:
                reach |= adjacency.get(peer, set())
            mask = 0
            for other in reach:
                k = index.get(other)
                if k is not None and k != j:
                    mask |= 1 << k
            neighbors.append(tuple(index[peer] for peer in peers if peer in index))
            interference.append(mask)
        #: Per node: one-hop neighbour indices.
        self.neighbors: Tuple[Tuple[int, ...], ...] = tuple(neighbors)
        #: Per node: bitmask of the nodes it interferes with (one or two hops).
        self.interference: Tuple[int, ...] = tuple(interference)
        #: Node indices in sorted-id order: the re-draw order.
        self.order: Tuple[int, ...] = tuple(sorted(range(len(ids)), key=ids.__getitem__))
        #: ``(j, interference[j])`` in re-draw order.
        self.by_order = tuple((j, interference[j]) for j in self.order)
        #: Per node: its own bit.
        self.bits = tuple(1 << j for j in range(len(ids)))


@lru_cache(maxsize=None)
def _grid_tables(rows: int, cols: int) -> Tuple[Tuple[str, ...], _Topology]:
    adjacency = grid_topology(rows, cols)
    ids = list(adjacency)
    return tuple(ids), _Topology(ids, adjacency)


class TdmaNetwork:
    """Runs the slot-level TDMA simulation over an explicit topology.

    ``adjacency`` maps node ids to the set of one-hop neighbours; links are
    symmetric.  Collisions are evaluated against the *interference*
    relation: two transmitters conflict if they share a neighbour or are
    neighbours themselves (the hidden-terminal constraint).

    With lossless feedback the network must be its generator's only
    consumer: slot draws come off ``rng`` in prefetched chunks
    (:class:`~repro.sim.rng.ChunkedIntegers`), so words are drawn ahead of
    use.  The draw source is chosen here, from the config's
    ``feedback_loss_probability``.
    """

    def __init__(
        self,
        config: Optional[TdmaConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        self.config = config or TdmaConfig()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.collision_history: List[int] = []
        self._loss = self.config.feedback_loss_probability
        if self._loss > 0:
            self._draw = lambda n, integers=self.rng.integers: int(integers(n))
        else:
            self._draw = ChunkedIntegers(self.rng).below
        # Index-aligned, in join order: node id, slot and slot changes.
        self._ids: List[str] = []
        self._slots: List[int] = []
        self._changes: List[int] = []
        #: Views of those rows; ``None`` until ``nodes`` is first read.
        self._nodes: Optional[Dict[str, TdmaNode]] = {}
        #: Owned adjacency; ``None`` while it is a grid's, read off its tables.
        self._adjacency: Optional[Dict[str, Set[str]]] = {}
        self._topology: Optional[_Topology] = None
        #: ``(colliders in re-draw order, pair count)`` for the current
        #: slots; ``None`` once a slot or the topology changes.
        self._conflicts: Optional[Tuple[List[int], int]] = None

    @classmethod
    def grid(
        cls,
        rows: int,
        cols: int,
        config: Optional[TdmaConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> "TdmaNetwork":
        """A network on :func:`grid_topology` ``(rows, cols)``: the nodes in
        its order, each drawing its slot in turn — the network that
        ``add_node`` over the grid's items builds, on shared tables."""
        network = cls(config, rng)
        ids, topology = _grid_tables(rows, cols)
        draw, slots = network._draw, network.config.slots_per_frame
        network._ids = list(ids)
        network._nodes = None
        network._slots = [draw(slots) for _ in ids]
        network._changes = [0] * len(ids)
        network._adjacency = None
        network._topology = topology
        return network

    # ----------------------------------------------------------------- topology
    @property
    def nodes(self) -> Dict[str, TdmaNode]:
        """Node id -> :class:`TdmaNode`, in join order."""
        if self._nodes is None:
            self._nodes = {
                node_id: TdmaNode(node_id, self, j) for j, node_id in enumerate(self._ids)
            }
        return self._nodes

    @property
    def adjacency(self) -> Dict[str, Set[str]]:
        """Node id -> one-hop neighbour ids."""
        if self._adjacency is None:
            ids = self._ids
            self._adjacency = {
                node_id: {ids[k] for k in peers}
                for node_id, peers in zip(ids, self._topology.neighbors)
            }
        return self._adjacency

    def add_node(self, node_id: str, neighbors: Optional[Set[str]] = None,
                 slot: Optional[int] = None) -> TdmaNode:
        """Add a node (join); links are made symmetric automatically."""
        adjacency = self._topology_changes()
        nodes = self.nodes
        existing = nodes.get(node_id)
        if existing is None:
            index = len(self._ids)
            self._ids.append(node_id)
            self._slots.append(0)
            self._changes.append(0)
        else:
            # Re-adding an id replaces its node in place, as a dict does.
            index = existing._index
            existing._detach()
            self._changes[index] = 0
        node = nodes[node_id] = TdmaNode(node_id, self, index)
        node.slot = slot if slot is not None else self._draw(self.config.slots_per_frame)
        adjacency.setdefault(node_id, set())
        for neighbor in neighbors or set():
            if neighbor in nodes:
                adjacency[node_id].add(neighbor)
                adjacency.setdefault(neighbor, set()).add(node_id)
        return node

    def remove_node(self, node_id: str) -> None:
        """Remove a node (leave/crash)."""
        adjacency = self._topology_changes()
        node = self.nodes.pop(node_id, None)
        if node is not None:
            index = node._index
            node._detach()
            del self._ids[index]
            del self._slots[index]
            del self._changes[index]
            for later in list(self.nodes.values())[index:]:
                later._index -= 1
        adjacency.pop(node_id, None)
        for peers in adjacency.values():
            peers.discard(node_id)

    def add_link(self, a: str, b: str) -> None:
        adjacency = self._topology_changes()
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)

    def remove_link(self, a: str, b: str) -> None:
        adjacency = self._topology_changes()
        adjacency.get(a, set()).discard(b)
        adjacency.get(b, set()).discard(a)

    # --------------------------------------------------------------- execution
    def conflicting_pairs(self) -> List[Tuple[str, str]]:
        """Pairs of nodes whose current slots conflict under interference,
        each as ``(a, b)`` with ``a < b``, in sorted order."""
        colliders = self._conflict_pass()[0]
        ids, slots, interference = self._ids, self._slots, self._topology.interference
        return [
            (ids[a], ids[b])
            for position, a in enumerate(colliders)
            for b in colliders[position + 1:]
            if slots[a] == slots[b] and interference[a] >> b & 1
        ]

    def is_converged(self) -> bool:
        """True when the current allocation is collision-free."""
        return not self._conflict_pass()[0]

    def run_frame(self) -> int:
        """Simulate one TDMA frame; returns the number of collided pairs heard.

        Per slot: interfering transmitters that share it are in collision.
        At frame end, transmitters informed of a collision in their slot
        (feedback may be lost) re-draw a slot from those their neighbours
        were not heard on during the frame.
        """
        colliders, pairs = self._conflict_pass()
        if colliders and self._loss > 0:
            colliders = self._informed_colliders()
        if colliders:
            slots = self._slots
            heard = slots[:]
            changes = self._changes
            neighbors = self._topology.neighbors
            slots_per_frame = self.config.slots_per_frame
            draw = self._draw
            for j in colliders:
                taken = 1 << heard[j]
                for k in neighbors[j]:
                    taken |= 1 << heard[k]
                slots[j] = _kth_free(taken, slots_per_frame, draw)
                changes[j] += 1
            self._conflicts = None
        self.collision_history.append(pairs)
        return pairs

    def run_until_converged(self, max_frames: int = 1000) -> Optional[int]:
        """Run frames until convergence; returns the frame count or ``None``."""
        for frame in range(max_frames):
            if not self._conflict_pass()[0]:
                return frame
            self.run_frame()
        return None if self._conflict_pass()[0] else max_frames

    # --------------------------------------------------------------- internals
    def _topology_changes(self) -> Dict[str, Set[str]]:
        """The owned adjacency, about to change: drop the tables built on it."""
        adjacency = self.adjacency
        self._topology = None
        self._conflicts = None
        return adjacency

    def _set_slot(self, index: int, value: int) -> None:
        slot = int(value)
        if not 0 <= slot < self.config.slots_per_frame:
            raise ValueError(
                f"slot {slot} outside a {self.config.slots_per_frame}-slot frame"
            )
        self._slots[index] = slot
        self._conflicts = None

    def _conflict_pass(self) -> Tuple[List[int], int]:
        """Colliders of the current slots in re-draw order, and the number
        of interfering pairs that share a slot."""
        conflicts = self._conflicts
        if conflicts is None:
            topology = self._topology
            if topology is None:
                topology = self._topology = _Topology(self._ids, self.adjacency)
            slots = self._slots
            by_slot = [0] * self.config.slots_per_frame
            for slot, bit in zip(slots, topology.bits):
                by_slot[slot] |= bit
            colliders = []
            seen = 0
            for j, interferers in topology.by_order:
                hit = by_slot[slots[j]] & interferers
                if hit:
                    colliders.append(j)
                    seen += hit.bit_count()
            conflicts = self._conflicts = (colliders, seen // 2)
        return conflicts

    def _informed_colliders(self) -> List[int]:
        """Lossy feedback: the colliders whose collision report arrived, in
        re-draw order; draws one ``random()`` per transmitter per pair."""
        by_slot: Dict[int, List[int]] = {}
        for j, slot in enumerate(self._slots):
            by_slot.setdefault(slot, []).append(j)
        interference = self._topology.interference
        random, loss = self.rng.random, self._loss
        informed: Set[int] = set()
        for transmitters in by_slot.values():
            for position, a in enumerate(transmitters):
                interferers = interference[a]
                for b in transmitters[position + 1:]:
                    if interferers >> b & 1:
                        if random() >= loss:
                            informed.add(a)
                        if random() >= loss:
                            informed.add(b)
        return [j for j in self._topology.order if j in informed]


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
