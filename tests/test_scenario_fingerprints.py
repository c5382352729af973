"""Refactor safety net: pinned same-seed fingerprints for every builtin workload.

Use-case fingerprints hash the run's metrics and full trace stream at full
float precision, so any change to RNG draw order, event scheduling order or
physics that reaches an observable shows up as a mismatch; registry-run
workloads hash their metrics dict (see ``fingerprint_util`` for the exact
coverage per workload kind).

The use cases' processed-event counts are pinned on their own, in
``EVENT_COUNTS``.  A count says how the simulation is cut into events, not
what it computes: a scheduling change may move it on purpose — the medium's
one delivery event per frame (instead of one per receiver) lowered the
counts of the eight use cases that attach a medium while every digest stayed
byte-identical, and so did releasing the CSMA sender inside its frame's
completion event (each count dropped by exactly the frame completions its
run processed).  Polling the inaccessibility controller inside its
monitor's tick, instead of as a periodic task of its own, dropped each R2T
use case's count by exactly its controller checks
(``fingerprint_util.py --controller-checks``).  Keeping the count out of
the digest lets such a refresh show as exactly the counts it moves;
``fingerprint_util.py --diff`` prints them.

Since PR 4 every set-of-node-ids iteration that feeds RNG draws or message
scheduling (TDMA collision re-draws, pulse-sync neighbour exchanges,
manoeuvre-agreement participant requests) is sorted, so the physics no
longer depends on ``PYTHONHASHSEED`` and the fingerprints are computed
in-process — no fixed-hash-seed subprocess needed.

If this test fails, current wiring is **not** physics-equivalent to the
pinned state.  Only refresh a constant (via
``PYTHONPATH=src python tests/fingerprint_util.py``) for a deliberate,
reviewed change.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from fingerprint_util import WORKLOADS

#: Physics digests: metrics, plus the trace stream for use cases.
PINNED = {
    "platoon/karyon": "05dc401e02529ab382615ced7639622fc7d94b403d4e4a721b8b7e7beeb24694",
    "platoon/always_cooperative": "358789bca3aaa02612bef31a829258a9f29fe040d286b0242fcc78642174f6d8",
    "platoon/never_cooperative": "de4612b35ba4d43d30341fb66ae98d8cd0a274f77ff698845bc9477841774354",
    "intersection/infrastructure": "e6d7c03e9c1e679e20441f79abf497f4cf20e7854c5ab11bc3b09452bc69b94f",
    "intersection/vtl_fallback": "066e212dda94ff0809568f233dc489b82c552244ee79da4c6c9008de176cc475",
    "intersection/uncoordinated": "aef82fb2492231e1e2d2d3787e78592003ed5e0a8d019638377966ae4298cc1a",
    "lane_change/coordinated": "81b056f1135712dbe853c9ecf7e911f341c889bc0b543615289d3b567be8a1d4",
    "lane_change/uncoordinated": "c5482b01ac73e0af4cc44031544fc93cf502acd6d825fba211beab294a4c1116",
    "avionics/in_trail": "41c2d36c6af3d6bf4b37e238f5bd7c3480f5c74aef489b19fbfaebcd657f9bcb",
    "avionics/crossing": "42878e068a33f3e10eb19e19617d290270b64ffc74ba6e8202955aec6a18e029",
    "avionics/level_change": "62f1b48be8df45e961c4c9074fa96cb7858f67e3fa22752678c4c73f8d7a58a9",
    "urban_grid": "4fc59755926e5925c4fd85e799d14a6e8bedf4c5123fde3f33e3e2bf75ee7191",
    "corridor": "a355ab5e866482cb76e3e93b4b4eb70f84137925eff7921446ac005da00800bd",
    "mixed_airspace": "0946dd3cd5125f47d9579be42b004054dbbf6206e6963c61e10dc6d946b124a1",
    "sensor_validity": "792b055096ed868bac181756ce82ed1306894d13d5cf98e0187ca8cf743dbc24",
    "r2t_mac/r2t": "aa893d479121579c76de17ce5238ab3c88849bef1cf1fdf4fa454f7eff09ebe1",
    "r2t_mac/csma": "0db442b76756f0e6d7c00b68ab7f9b97d9da79c1dc1dcc241e30fffd35b4386d",
    "tdma_convergence": "2e9c5f2640e1a9d5f82719edc20689bf4afbc1d76cbffe7396b21e5a4d821ac9",
    "pulse_alignment": "12003d4bded5a944a4c375575ab07ff37e1d27bf2d7536afd9e91cb88be08c6c",
    "event_channels/admission": "58702a281c1c93c25d4903ca243ce3e2c3e462e9736cf0e51bb4022e9688cf9a",
    "event_channels/open": "4db2e60dcc9203bc67d652fc4e9ccc8d73dbe707c6c863e48de5a64e1f324bce",
    "demo/safety_kernel": "ad1d48ef14be8ba3fe8e9df0a3b2a311b241457a054555a5a6dfa3b67dc5d7a8",
    "demo/random_walk": "e9071af4fbb5988b37e84d122efd22f38f5a488646536a80dd95ba8c8dd65640",
}

#: ``Simulator.events_processed`` of each use-case workload.
EVENT_COUNTS = {
    "platoon/karyon": 14682,
    "platoon/always_cooperative": 14082,
    "platoon/never_cooperative": 14082,
    "intersection/infrastructure": 32533,
    "intersection/vtl_fallback": 32135,
    "intersection/uncoordinated": 31902,
    "lane_change/coordinated": 17812,
    "lane_change/uncoordinated": 17657,
    "avionics/in_trail": 804,
    "avionics/crossing": 804,
    "avionics/level_change": 620,
    "urban_grid": 14177,
    "corridor": 20775,
    "mixed_airspace": 20359,
}

#: The workloads whose physics used to depend on set iteration order (TDMA
#: collision re-draws, pulse-sync neighbour exchanges, lane-change
#: participant requests) before those iterations were sorted.
_FORMERLY_HASH_DEPENDENT = (
    "tdma_convergence",
    "pulse_alignment",
    "lane_change/coordinated",
)


def test_every_workload_is_pinned():
    assert set(PINNED) == set(WORKLOADS)
    assert set(EVENT_COUNTS) <= set(PINNED)


def _assert_matches_pins(observed, context):
    drifted = sorted(name for name in PINNED if observed[name][0] != PINNED[name])
    assert not drifted, f"same-seed physics drifted {context} for: {drifted}"
    counts = {name: events for name, (_, events) in observed.items() if events is not None}
    assert counts == EVENT_COUNTS, f"processed-event counts moved {context}"


def test_same_seed_physics_is_byte_identical_with_tracing_enabled(tmp_path):
    """All 23 pinned fingerprints and the event counts, computed WITH span
    tracing recording.

    This is the observability subsystem's hard rule: tracing never draws
    seeded randomness, never reorders simulator events and never
    contributes to result bytes.  Running every pinned workload under an
    enabled tracer (inside a live span, so the current-parent thread-local
    is populated too, and with the simulator kernel writing its
    ``scenario.build``/``scenario.sim`` phase spans) must reproduce the
    exact same hashes and counts as with tracing off (the suite's every
    other test runs untraced and covers that side).
    """
    from repro.observability.trace import (
        TRACER,
        disable_tracing,
        enable_tracing,
        read_trace_file,
    )

    enable_tracing(tmp_path, source="fingerprints")
    try:
        with TRACER.span("fingerprints", cat="campaign", parent=None):
            observed = {name: WORKLOADS[name]() for name in PINNED}
    finally:
        disable_tracing()
    _assert_matches_pins(observed, "with tracing enabled")
    # Prove the tracer was live, the kernel's phase spans included, so the
    # byte-identity above tested the instrumented path, not a no-op.
    spans = []
    for path in tmp_path.glob("trace-*.jsonl"):
        spans.extend(read_trace_file(path))
    names = {span.get("name") for span in spans}
    assert {"fingerprints", "scenario.build", "scenario.sim"} <= names


def test_physics_does_not_depend_on_hash_seed():
    """The formerly hash-dependent workloads fingerprint identically under
    two different ``PYTHONHASHSEED`` values (regression for the sorted
    set iterations)."""
    repo_root = Path(__file__).resolve().parent.parent
    script = (
        "import json, fingerprint_util as f; "
        "names = json.loads(%r); "
        "print(json.dumps({n: f.WORKLOADS[n]() for n in names}))"
    ) % json.dumps(list(_FORMERLY_HASH_DEPENDENT))
    outputs = []
    for hash_seed in ("1", "424242"):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = os.pathsep.join(
            [str(repo_root / "src"), str(repo_root / "tests")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            check=True,
            capture_output=True,
            text=True,
        )
        outputs.append(json.loads(result.stdout))
    assert outputs[0] == outputs[1], (
        "physics depends on PYTHONHASHSEED for: "
        + ", ".join(sorted(n for n in outputs[0] if outputs[0][n] != outputs[1][n]))
    )
