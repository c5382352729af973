"""Lockstep vector programs: multi-seed forms of scalar factories.

A :class:`VectorProgram` advances a whole seed batch of one scenario.  The
contract is strict: for every seed the program must reproduce the scalar
factory **bit for bit**, because the backend serialises its records with the
exact same JSON encoder as the scalar kernel and the stores are compared
byte-for-byte (probe cell at runtime, full campaigns in the tests and the
``vector-smoke`` CI job).

No program re-implements its factory; each runs the code its factory runs:

* E2 (``sensor_validity``) calls the block sweep its factory calls
  (:mod:`repro.scenario.sensor_sweep`) with the whole batch;
* E4 (``tdma_convergence``) runs its factory's TDMA kernel
  (:mod:`repro.network.tdma`) seed by seed.

Safety rails, in order:

1. ``supports_params`` gates the parameter space to the cases the program
   covers (e.g. E4's ``churn`` adds a data-dependent joiner);
2. the backend still runs one scalar *probe* cell per batch and compares
   record bytes before trusting the remaining fast-path cells, and runs
   any seed missing from a program's output on the scalar kernel.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

__all__ = [
    "VectorProgram",
    "PROGRAMS",
    "program_for",
    "register_program",
]


class VectorProgram:
    """Base class for lockstep multi-seed programs."""

    #: Registry name of the scenario this program replays.
    scenario: str = ""

    def supports_params(self, params: Mapping[str, Any]) -> bool:
        """Whether this program runs the factory at *params* bit-exactly."""
        raise NotImplementedError

    def run(
        self, spec: Any, seeds: List[int], params: Dict[str, Any]
    ) -> Dict[int, Dict[str, Any]]:
        """Run *seeds* at *params*; return ``{seed: factory_result}``."""
        raise NotImplementedError


# --------------------------------------------------------------------------
# E2 — sensor_validity
# --------------------------------------------------------------------------


class SensorValidityProgram(VectorProgram):
    """E2 seed batches: the factory's own block sweep, over the whole batch.

    :func:`repro.scenario.sensor_sweep.sensor_validity_sweep` is the code the
    ``sensor_validity`` factory runs for one seed, so there is no mirror.
    Every fault class has a block form, since none can drop a sample; an
    unknown one falls back whole to fail as the factory does.
    """

    scenario = "sensor_validity"

    def supports_params(self, params: Mapping[str, Any]) -> bool:
        from repro.sensors.faults import FaultClass

        return str(params["fault_class"]) in {fc.value for fc in FaultClass}

    def run(
        self, spec: Any, seeds: List[int], params: Dict[str, Any]
    ) -> Dict[int, Dict[str, Any]]:
        from repro.scenario.sensor_sweep import sensor_validity_sweep

        return dict(zip(seeds, sensor_validity_sweep(seeds, **params)))


# --------------------------------------------------------------------------
# E4 — tdma_convergence
# --------------------------------------------------------------------------


class TdmaConvergenceProgram(VectorProgram):
    """E4 seed batches: the factory's own TDMA kernel, one seed after another.

    Each seed runs ``run_tdma_convergence`` — :meth:`TdmaNetwork.grid
    <repro.network.tdma.TdmaNetwork.grid>` and ``run_until_converged`` — so
    there is no mirror; the batch saves the scalar path's per-cell runner
    work.  ``churn=True`` adds a data-dependent
    joiner and falls back whole.
    """

    scenario = "tdma_convergence"

    def supports_params(self, params: Mapping[str, Any]) -> bool:
        if bool(params.get("churn", False)):
            return False
        return int(params["rows"]) >= 1 and int(params["cols"]) >= 1 and int(params["slots"]) >= 1

    def run(
        self, spec: Any, seeds: List[int], params: Dict[str, Any]
    ) -> Dict[int, Dict[str, Any]]:
        return {seed: spec.factory(seed, **params) for seed in seeds}


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------

PROGRAMS: Dict[str, VectorProgram] = {}


def register_program(program: VectorProgram) -> VectorProgram:
    """Install *program* for its scenario (tests swap in instrumented ones)."""
    PROGRAMS[program.scenario] = program
    return program


for _program in (SensorValidityProgram(), TdmaConvergenceProgram()):
    register_program(_program)


def program_for(spec: Any, params: Mapping[str, Any]) -> Optional[VectorProgram]:
    """The registered program able to run *spec* at *params*, or ``None``."""
    program = PROGRAMS.get(getattr(spec, "name", None))
    try:
        return program if program is not None and program.supports_params(params) else None
    except (KeyError, TypeError, ValueError):
        return None
