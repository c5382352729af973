"""Fault-management unit: combining detector verdicts into a data validity.

Paper section IV-B: "All tests are connected to the fault management module
that combines the individual fault estimations and calculates a general
validity value between 0 and 100%."  Dominant detections force validity to
zero; otherwise the continuous detectors' suspicions are combined according
to a :class:`ValidityPolicy`.

Block form: :meth:`FaultManagementUnit.block_validity` combines whole
suspicion arrays under the ``PRODUCT`` policy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.sensors.detectors import DetectorVerdict
from repro.sensors.readings import SensorReading


class ValidityPolicy(enum.Enum):
    """How non-dominant suspicions combine into a validity value."""

    #: validity = product of (1 - suspicion_i) — independent evidence.
    PRODUCT = "product"
    #: validity = 1 - max(suspicion_i) — worst single piece of evidence.
    WORST_CASE = "worst_case"
    #: validity = 1 - mean(suspicion_i) — averaged evidence.
    MEAN = "mean"


@dataclass
class ValidityAssessment:
    """Result of combining detector verdicts for one reading."""

    validity: float
    verdicts: List[DetectorVerdict] = field(default_factory=list)
    dominant_triggered: bool = False

    @property
    def reasons(self) -> List[str]:
        return [v.reason for v in self.verdicts if v.suspicion > 0 and v.reason]


class FaultManagementUnit:
    """Combines per-detector verdicts into the reading's data validity."""

    def __init__(
        self,
        policy: ValidityPolicy = ValidityPolicy.PRODUCT,
        floor: float = 0.0,
    ):
        if not 0.0 <= floor < 1.0:
            raise ValueError(f"floor must be in [0, 1), got {floor}")
        self.policy = policy
        self.floor = floor
        self.assessments = 0
        self.invalidations = 0

    def _validity(self, verdicts: Iterable[DetectorVerdict]) -> Tuple[float, bool]:
        """``(validity, dominant_triggered)`` under the policy, in one pass."""
        self.assessments += 1
        continuous = []
        for verdict in verdicts:
            if not verdict.dominant:
                continuous.append(verdict.suspicion)
            elif verdict.invalidates:
                self.invalidations += 1
                return 0.0, True
        if not continuous:
            return 1.0, False
        if self.policy is ValidityPolicy.PRODUCT:
            validity = 1.0
            for suspicion in continuous:
                validity *= 1.0 - suspicion
        elif self.policy is ValidityPolicy.WORST_CASE:
            validity = 1.0 - max(continuous)
        else:  # MEAN
            validity = 1.0 - sum(continuous) / len(continuous)
        return max(self.floor, min(1.0, validity)), False

    def combine(self, verdicts: Sequence[DetectorVerdict]) -> ValidityAssessment:
        """Combine verdicts according to the policy."""
        verdict_list = list(verdicts)
        validity, dominant_triggered = self._validity(verdict_list)
        return ValidityAssessment(validity, verdict_list, dominant_triggered)

    def assess(
        self,
        reading: SensorReading,
        verdicts: Iterable[DetectorVerdict],
    ) -> SensorReading:
        """Return ``reading`` annotated with the combined validity."""
        return reading.with_validity(self._validity(verdicts)[0])

    @property
    def has_block_form(self) -> bool:
        """Whether :meth:`block_validity` covers this unit's policy."""
        return self.policy is ValidityPolicy.PRODUCT

    def block_validity(
        self, verdicts: Sequence[Tuple[bool, np.ndarray]], shape: Tuple[int, ...]
    ) -> np.ndarray:
        """Block form of the validity :meth:`assess` gives, from one
        ``(dominant, suspicions)`` pair per detector in stack order; needs
        :attr:`has_block_form`.  The counters do not move."""
        validity = np.ones(shape)
        invalid = np.zeros(shape, dtype=bool)
        for dominant, suspicion in verdicts:
            if dominant:
                invalid |= suspicion >= 1.0
            else:
                validity = validity * (1.0 - suspicion)
        validity = np.where(validity < 1.0, validity, 1.0)
        validity = np.where(validity > self.floor, validity, self.floor)
        return np.where(invalid, 0.0, validity)
