"""Lockstep vectorized multi-seed execution (``--backend vector``).

Executes a whole seed batch of a homogeneous scenario as one program call,
byte-identical per seed to the scalar kernel:

* :mod:`repro.vectorized.engine` — :class:`LockstepBatch` (the unit of
  lockstep work, with mid-flight seed eviction) and :class:`VectorStats`
  (occupancy accounting);
* :mod:`repro.vectorized.programs` — the bit-exact per-scenario programs
  and their registry: E2 calls its factory's own block sweep, E4 its
  factory's TDMA kernel;
* :mod:`repro.vectorized.backend` — :class:`VectorBatchBackend` on the
  :class:`~repro.experiments.runner.ExecutionBackend` seam: batch
  planning, pre-/mid-flight eviction, per-batch scalar probe, whole-group
  scalar fallback.
"""

from repro.vectorized.backend import VectorBatchBackend
from repro.vectorized.engine import LockstepBatch, VectorStats
from repro.vectorized.programs import (
    PROGRAMS,
    VectorProgram,
    program_for,
    register_program,
)

__all__ = [
    "VectorBatchBackend",
    "LockstepBatch",
    "VectorStats",
    "VectorProgram",
    "PROGRAMS",
    "program_for",
    "register_program",
]
