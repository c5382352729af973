"""Pins for the TDMA slot-allocation kernel's random stream.

The registry fingerprints cover only the default 3x3 grid without churn or
feedback loss.  These tests pin what they miss: the ``choice``/``integers``
identity the re-draw relies on, whole trajectories on the lossy-feedback,
churn and 6x6 paths, and the frames to converge of the benchmark's E4 cells.
The benchmark's pins were recorded from the string-keyed kernel the index
kernel replaced, so they are an oracle independent of the code under test.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.experiments.scenarios import run_tdma_convergence
from repro.network.tdma import TdmaConfig, TdmaNetwork, grid_topology, redraw_slot


@pytest.mark.parametrize("seed", range(40))
def test_choice_equals_integer_index(seed):
    """``rng.choice(c)`` and ``c[int(rng.integers(len(c)))]`` give the same
    values and leave the generator in the same state, with ``random()``
    draws interleaved."""
    by_choice = np.random.default_rng(seed)
    by_index = np.random.default_rng(seed)
    for length in range(1, 61):
        candidates = list(range(100, 100 + 2 * length, 2))
        assert by_choice.random() == by_index.random()
        assert int(by_choice.choice(candidates)) == candidates[int(by_index.integers(len(candidates)))]
    assert by_choice.bit_generator.state == by_index.bit_generator.state


@pytest.mark.parametrize("seed", range(20))
def test_redraw_slot_takes_kth_candidate(seed):
    """The re-draw picks ``candidates[integers(len(candidates))]`` off the
    list of free slots (or of all slots when none is free), leaving the
    generator where that draw does."""
    picks = np.random.default_rng(seed)
    by_rule = np.random.default_rng(seed)
    by_list = np.random.default_rng(seed)
    for slots in (1, 2, 5, 12, 60):
        for _ in range(40):
            own = int(picks.integers(slots))
            busy = set(picks.integers(slots, size=int(picks.integers(slots + 1))).tolist())
            candidates = [s for s in range(slots) if s not in busy and s != own]
            candidates = candidates or list(range(slots))
            expected = candidates[int(by_list.integers(len(candidates)))]
            assert redraw_slot(by_rule, slots, own, busy) == expected
    assert by_rule.bit_generator.state == by_list.bit_generator.state


def test_redraw_slot_avoids_busy_and_own_slot():
    rng = np.random.default_rng(0)
    for _ in range(200):
        assert redraw_slot(rng, 6, 2, {0, 1, 5}) in (3, 4)
    # Every slot heard busy: fall back to all slots, own included.
    assert {redraw_slot(rng, 3, 0, {1, 2}) for _ in range(200)} == {0, 1, 2}


def test_node_views_follow_joins_leaves_and_slot_writes():
    network = TdmaNetwork(TdmaConfig(slots_per_frame=4))
    for node_id, slot in (("a", 0), ("b", 1), ("c", 2), ("d", 1)):
        network.add_node(node_id, neighbors={"a", "b", "c"} - {node_id}, slot=slot)
    assert not network.is_converged()  # d shares its neighbour b's slot
    gone = network.nodes["b"]
    network.remove_node("b")
    assert gone.slot == 1 and gone.node_id == "b"
    assert {n: node.slot for n, node in network.nodes.items()} == {"a": 0, "c": 2, "d": 1}
    assert network.is_converged()
    network.nodes["d"].slot = 0
    assert network.conflicting_pairs() == [("a", "d")]
    with pytest.raises(ValueError):
        network.nodes["d"].slot = 4


def test_grid_network_reads_its_tables_until_it_changes():
    network = TdmaNetwork.grid(3, 4, TdmaConfig(slots_per_frame=12), np.random.default_rng(3))
    assert network.adjacency == grid_topology(3, 4)
    assert list(network.nodes) == list(grid_topology(3, 4))
    anchor = network.nodes["n1_1"]
    joiner = network.add_node("joiner", neighbors={"n1_1"}, slot=anchor.slot)
    assert network.adjacency["n1_1"] == grid_topology(3, 4)["n1_1"] | {"joiner"}
    assert ("joiner", "n1_1") in network.conflicting_pairs()
    assert network.run_until_converged(max_frames=1000) is not None
    assert joiner.slot_changes + anchor.slot_changes >= 1


def _trajectory(rows, cols, seed, feedback_loss=0.0, churn=False):
    """``run_tdma_convergence``'s network on a 12-slot grid; returns frames to
    converge and a digest of the collision history, per-node slot changes
    and final slots."""
    network = TdmaNetwork(
        TdmaConfig(slots_per_frame=12, feedback_loss_probability=feedback_loss),
        rng=np.random.default_rng(seed),
    )
    for node, peers in grid_topology(rows, cols).items():
        network.add_node(node, neighbors=peers)
    frames = network.run_until_converged(max_frames=3000)
    if churn and frames is not None:
        anchor = next(iter(network.nodes))
        network.add_node("joiner", neighbors={anchor}, slot=network.nodes[anchor].slot)
        extra = network.run_until_converged(max_frames=3000)
        frames = frames + extra if extra is not None else None
    nodes = sorted(network.nodes.items())
    blob = json.dumps([
        network.collision_history,
        {node_id: node.slot_changes for node_id, node in nodes},
        {node_id: node.slot for node_id, node in nodes},
    ])
    return frames, hashlib.sha256(blob.encode()).hexdigest()[:16]


# (frames_to_converge, trajectory digest) per seed, recorded before the
# re-draw switched from ``rng.choice`` to an ``integers`` index.
LOSSY_4X4 = [
    (5, "ea24150ef3e06ab8"), (2, "d0bd344212235a52"), (6, "25c1eb8c77b54eb3"),
    (6, "f81fcdc8d94d7489"), (3, "05592730cd7e6b87"), (4, "a8202efae6a219b2"),
    (4, "9a3c8b856deb5f8e"), (4, "577e340417d92e3d"), (4, "b57f5f2d741da733"),
    (2, "a8c1d0f078a7b89f"),
]
CHURN_3X3 = [
    (5, "b39266d11600c334"), (2, "4ee591d530e243f9"), (4, "0e0c1b7b7678c162"),
    (4, "125bf022fac6529e"), (14, "cc339f0ec341c0d9"), (3, "730b1a3557f94c4e"),
    (4, "055e3766d3f1aabb"), (4, "1261aecfe8730827"), (5, "46b06fa4f52d08e8"),
    (7, "94fb47bf62cc40ec"),
]
GRID_6X6 = [
    (28, "0f129779b1072279"), (9, "571938c26a04f6aa"), (7, "bdf2494e0824abb2"),
    (16, "c3d79ddac81de54a"), (20, "5a3b07439bd8ae00"), (18, "b986f888dda3ced0"),
    (10, "734f4e5dace63e8a"), (15, "a4d9b99e53aed82f"), (20, "4c719a0b949372aa"),
    (6, "067c281a2ec447e8"), (8, "94b901a8d19d7029"), (17, "198046ca969b7005"),
    (15, "04d7f4173bb642cb"), (15, "bb655d234674db40"), (29, "378fb875f7f3dad7"),
    (7, "21358f6da4aa5ba5"), (18, "b5ccd15d5e755f88"), (10, "93d6f7caad028006"),
    (10, "27725a8b8b30321f"), (6, "e7aa04895c8abb98"), (7, "a37cccbe72f5df09"),
    (7, "6b6963edb33142e1"), (7, "007cc3a1bdd2336e"), (10, "a5d0209a5ecb0c97"),
    (22, "ceb04b7ba7991ccb"), (7, "cd6fcd738d1e59a7"), (12, "22731e8f4815c06d"),
    (13, "11147bd80286dd72"), (13, "7bd6fd042b8fb96c"), (12, "d8f05d66a0048d52"),
    (19, "81415fd7688af8ca"), (8, "ae727d23440f46f5"),
]


@pytest.mark.parametrize("seed", range(len(LOSSY_4X4)))
def test_lossy_feedback_trajectory_pinned(seed):
    assert _trajectory(4, 4, seed, feedback_loss=0.3) == LOSSY_4X4[seed]


@pytest.mark.parametrize("seed", range(len(CHURN_3X3)))
def test_churn_trajectory_pinned(seed):
    assert _trajectory(3, 3, seed, churn=True) == CHURN_3X3[seed]


@pytest.mark.parametrize("seed", range(len(GRID_6X6)))
def test_6x6_trajectory_pinned(seed):
    assert _trajectory(6, 6, seed) == GRID_6X6[seed]


# The benchmark's E4 cells, recorded before the kernel moved to node indices:
# frames to converge of ``tdma_convergence`` on a 6x6 grid with 12 slots
# (the spool campaign's cells) and on a 12x12 grid with 60 slots (the vector
# batch's cells), seeds 0 upwards.
SPOOL_6X6_FRAMES = [
    28, 9, 7, 16, 20, 18, 10, 15, 20, 6, 8, 17, 15, 15, 29, 7, 18, 10, 10, 6, 7,
    7, 7, 10, 22, 7, 12, 13, 13, 12, 19, 8, 19, 12, 8, 18, 14, 14, 32, 12, 16,
    20, 26, 21, 24, 21, 9, 14, 40, 14, 10, 9, 19, 7, 3, 11, 8, 15, 15, 19, 14,
    12, 6, 17, 13, 10, 12, 11, 7, 13, 15, 21, 7, 22, 9, 15, 13, 26, 9, 4, 7, 10,
    20, 5, 11, 13, 13, 11, 17, 25, 25, 11, 15, 7, 9, 17, 5, 23, 6, 18, 13, 11,
    12, 10, 10, 12, 23, 21, 8, 15, 10, 7, 7, 4, 23, 13, 7, 13, 8, 9, 10, 8, 33,
    8, 24, 32, 13, 16, 9, 12, 14, 10, 17, 20, 12, 3, 13, 12, 10, 5, 11, 34, 6,
    11, 7, 3, 16, 36, 5, 6, 5, 16, 7, 10, 21, 16, 14, 10, 32, 7, 24, 14, 28, 18,
    6, 6, 28, 7, 17, 11, 24, 9, 19, 5, 13, 7, 21, 9, 3, 9, 14, 11, 16, 14, 6, 9,
    18, 15, 16, 6, 15, 6, 8, 28, 6, 20, 9, 12, 20, 6
]
BATCH_12X12_FRAMES = [
    2, 3, 3, 6, 2, 2, 3, 4, 2, 3, 3, 2, 4, 2, 3, 3, 2, 3, 3, 1, 2, 1, 2, 1, 1,
    2, 3, 2, 3, 3, 1, 2, 2, 3, 2, 2, 2, 2, 1, 2, 2, 4, 2, 2, 2, 3, 2, 2, 2, 2,
    4, 4, 4, 3, 3, 1, 2, 4, 2, 3, 3, 2, 2, 2
]
#: sha256 of every seed's frames, collision history, per-node slot changes
#: and final slots, over the same cells.
GRID_DIGESTS = {
    (6, 6, 12, 200): "58aa777c894bd10ddc66a104056ba1490808daa944a8558b6cd31742577a855f",
    (12, 12, 60, 64): "90488c1ea38ffc71565d222a411238faaf451670050e496cd3cbc53e4211b78f",
}


def test_spool_campaign_cells_pinned():
    frames = [
        run_tdma_convergence(seed, rows=6, cols=6, slots=12)["frames_to_converge"]
        for seed in range(len(SPOOL_6X6_FRAMES))
    ]
    assert frames == SPOOL_6X6_FRAMES


def test_vector_batch_cells_pinned():
    frames = [
        run_tdma_convergence(seed, rows=12, cols=12, slots=60)["frames_to_converge"]
        for seed in range(len(BATCH_12X12_FRAMES))
    ]
    assert frames == BATCH_12X12_FRAMES


def _built_by_add_node(rows, cols, config, rng):
    network = TdmaNetwork(config, rng)
    for node, peers in grid_topology(rows, cols).items():
        network.add_node(node, neighbors=peers)
    return network


@pytest.mark.parametrize("build", [TdmaNetwork.grid, _built_by_add_node], ids=["grid", "add_node"])
@pytest.mark.parametrize("cells", sorted(GRID_DIGESTS), ids=["6x6", "12x12"])
def test_grid_trajectories_pinned(cells, build):
    """The shared grid tables and a grid built node by node run the same
    trajectories, and those of the string-keyed kernel."""
    rows, cols, slots, seeds = cells
    runs = []
    for seed in range(seeds):
        network = build(rows, cols, TdmaConfig(slots_per_frame=slots), np.random.default_rng(seed))
        frames = network.run_until_converged(max_frames=3000)
        nodes = sorted(network.nodes.items())
        runs.append([
            frames,
            network.collision_history,
            {node_id: node.slot_changes for node_id, node in nodes},
            {node_id: node.slot for node_id, node in nodes},
        ])
    assert hashlib.sha256(json.dumps(runs).encode()).hexdigest() == GRID_DIGESTS[cells]
