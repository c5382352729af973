"""Pins for the TDMA slot-allocation kernel's random stream.

The registry fingerprints cover only the default 3x3 grid without churn or
feedback loss.  These tests pin what they miss: the ``choice``/``integers``
identity the re-draw relies on, and whole trajectories on the lossy-feedback,
churn and 6x6 paths.
"""

import hashlib
import json

import numpy as np
import pytest

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


def test_redraw_slot_avoids_busy_and_own_slot():
    rng = np.random.default_rng(0)
    for _ in range(200):
        assert redraw_slot(rng, 6, 2, {0, 1, 5}) in (3, 4)
    # Every slot heard busy: fall back to all slots, own included.
    assert {redraw_slot(rng, 3, 0, {1, 2}) for _ in range(200)} == {0, 1, 2}


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
