"""Lockstep vectorized multi-seed execution (``--backend vector``).

Executes a whole seed batch of a homogeneous scenario as one program call,
byte-identical per seed to the scalar kernel:

* :mod:`repro.vectorized.programs` — the bit-exact per-scenario programs
  and their registry: E2 calls its factory's own block sweep, E4 its
  factory's TDMA kernel;
* :mod:`repro.vectorized.backend` — :class:`VectorBatchBackend` on the
  :class:`~repro.experiments.runner.ExecutionBackend` seam (batch
  planning, per-batch scalar probe, scalar fallback) and
  :class:`VectorStats`, its occupancy accounting.
"""

from repro.vectorized.backend import VectorBatchBackend, VectorStats
from repro.vectorized.programs import (
    PROGRAMS,
    VectorProgram,
    program_for,
    register_program,
)

__all__ = [
    "VectorBatchBackend",
    "VectorStats",
    "VectorProgram",
    "PROGRAMS",
    "program_for",
    "register_program",
]
