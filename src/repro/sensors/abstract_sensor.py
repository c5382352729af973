"""Abstract sensors and abstract reliable sensors.

Fig 2 of the paper: a nominal component ``C`` plus failure-mapping logic
``F`` present a well-defined failure semantics at the component interface.
:class:`AbstractSensor` is exactly that — a physical sensor wrapped with
failure detectors and a fault-management unit so consumers only see a value
plus a data validity.

:class:`AbstractReliableSensor` layers redundancy on top (component,
analytical and temporal redundancy, section IV-B) and exposes a fused,
higher-validity reading.

Hot-path notes: :meth:`AbstractSensor.read` runs once per sample per sensor,
and on the sensor-heavy workloads it is most of a cell's time.  Its cost is
mostly building frozen dataclasses, so the clean path builds as few as it can
while every reading stays equal, field by field, to the unoptimised one.

* :meth:`PhysicalSensor.sample` builds exactly one reading and one attribute
  set, with positional arguments, and skips the fault injector while no
  fault is scheduled.
* Measurement noise comes off a :class:`~repro.sim.rng.ChunkedNormals`
  buffer of Python floats; whether an RNG-drawing fault forces one draw per
  sample is asked only when the buffer refills, the only time it matters.
* Detectors return a shared verdict when they suspect nothing, and the
  fault-management unit computes the validity without building a
  :class:`~repro.sensors.validity.ValidityAssessment`.  A fully trusted
  reading is returned as is rather than copied with the same validity.

Block form: in an open-loop sweep, where no reading feeds back into what
is sampled next, :meth:`PhysicalSensor.sample_block` and
:meth:`AbstractSensor.assess_block` take a whole run of samples as arrays,
bit for bit what :meth:`AbstractSensor.read` gives where
:attr:`AbstractSensor.has_block_form` holds: with any fault that cannot
drop a sample.  An RNG-drawing fault makes the sensor sample per instant
into the block; the assessment stays one block call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.sensors.detectors import DetectorVerdict, FailureDetector
from repro.sensors.fusion import (
    FusionResult,
    TemporalFuser,
    marzullo_fuse,
    validity_weighted_mean,
)
from repro.sensors.injector import FaultInjector
from repro.sensors.readings import ReadingAttributes, SensorReading
from repro.sensors.validity import FaultManagementUnit, ValidityPolicy
from repro.sim.rng import ChunkedNormals


#: Noise values pre-drawn per RNG call while no fault can touch the stream.
_NOISE_CHUNK = 128


class PhysicalSensor:
    """A simulated transducer sampling a ground-truth signal with noise.

    ``truth_fn`` maps simulated time to the true value of the measured
    quantity; the sensor adds Gaussian noise and may be corrupted by an
    attached :class:`~repro.sensors.injector.FaultInjector`.

    Measurement noise is pre-drawn in batches of standard normals
    (``normal(0, sigma)`` is ``sigma * standard_normal()`` on the same bit
    stream, so per-sample values are identical to scalar draws) whenever no
    attached fault can consume the shared RNG; with an RNG-drawing fault
    scheduled, the sensor falls back to one draw per sample so fault and
    noise draws interleave exactly as they would unbatched.  Injecting an
    RNG-drawing fault while pre-drawn noise is still buffered would shift
    the stream relative to a never-batched run, so :meth:`inject` refuses
    it; schedule such faults before sampling starts.
    """

    def __init__(
        self,
        name: str,
        quantity: str,
        truth_fn: Callable[[float], float],
        noise_sigma: float = 0.0,
        error_bound: Optional[float] = None,
        rng: Optional[np.random.Generator] = None,
        position: Optional[tuple] = None,
    ):
        self.name = name
        self.quantity = quantity
        self.truth_fn = truth_fn
        self.noise_sigma = noise_sigma
        self.error_bound = error_bound if error_bound is not None else 3.0 * noise_sigma
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.position = position
        self.injector = FaultInjector(rng=self.rng)
        self.samples_taken = 0
        self._sequence = 0
        self._noise = ChunkedNormals(
            self.rng, chunk=_NOISE_CHUNK, unbatched=lambda: self.injector.may_draw_rng
        )

    def sample(self, now: float) -> Optional[SensorReading]:
        """Take one sample at simulated time ``now``.

        Returns ``None`` if an active fault drops the sample (omission).
        """
        return self._sample(now, self.truth_fn(now))

    def _sample(self, now: float, true_value: float) -> Optional[SensorReading]:
        """:meth:`sample` given ``truth_fn(now)``."""
        self.samples_taken += 1
        sigma = self.noise_sigma
        noise = sigma * self._noise.next() if sigma > 0 else 0.0
        self._sequence += 1
        reading = SensorReading(
            self.quantity,
            float(true_value + noise),
            now,
            1.0,
            self.error_bound,
            ReadingAttributes(self.position, self.name, self._sequence),
        )
        injector = self.injector
        if not injector.activations:
            return reading
        return injector.process(reading, now)

    def sample_block(self, now: np.ndarray, truth: np.ndarray) -> np.ndarray:
        """Block form of :meth:`sample`: the values sampled at the instants
        ``now``, given ``truth_fn`` at each (``truth``, which sensors sharing
        a truth compute once).  Needs :attr:`AbstractSensor.has_block_form`.

        With an RNG-drawing fault scheduled, the sensor samples per instant,
        so noise and fault draws interleave as in :meth:`sample`, and raises
        ``ValueError`` if a sample is dropped.  Otherwise the noise stream
        advances as the per-sample calls would, but the injector and the
        faults keep their state: the faults must be fresh, and no
        :meth:`sample` may follow."""
        if self.injector.may_draw_rng:
            readings = [self._sample(*instant) for instant in zip(now.tolist(), truth.tolist())]
            if any(reading is None for reading in readings):
                raise ValueError(f"{self.name}: a fault dropped a sample; no block form")
            return np.array([reading.value for reading in readings])
        count = len(now)
        self.samples_taken += count
        self._sequence += count
        noise = self.noise_sigma * self._noise.predraw(count) if self.noise_sigma > 0 else 0.0
        values = truth + noise
        for activation in self.injector.activations:
            active = (activation.start <= now) & (now < activation.end)
            values = activation.fault.apply_block(values, active)
        return values

    def inject(self, fault, start: float, end: float = float("inf")) -> None:
        """Schedule ``fault`` on the attached fault injector.

        Raises ``ValueError`` for a fault that draws from the RNG while
        batch-drawn noise is still buffered: that noise was drawn before the
        fault's first draw, where an unbatched run would draw it after.
        """
        if fault.draws_rng and self._noise.buffered:
            raise ValueError(
                f"{self.name}: cannot inject an RNG-drawing fault after sampling has "
                f"started ({self._noise.buffered} pre-drawn noise values are buffered)"
            )
        self.injector.add(fault, start, end)


class AbstractSensor:
    """Physical sensor + detectors + fault management = failure semantics at the interface."""

    def __init__(
        self,
        physical: PhysicalSensor,
        detectors: Optional[Sequence[FailureDetector]] = None,
        policy: ValidityPolicy = ValidityPolicy.PRODUCT,
    ):
        self.physical = physical
        self.detectors: List[FailureDetector] = list(detectors) if detectors else []
        self.fault_management = FaultManagementUnit(policy=policy)
        self.last_reading: Optional[SensorReading] = None
        self.last_verdicts: List[DetectorVerdict] = []
        self.omissions = 0

    @property
    def name(self) -> str:
        return self.physical.name

    @property
    def quantity(self) -> str:
        return self.physical.quantity

    def add_detector(self, detector: FailureDetector) -> None:
        self.detectors.append(detector)

    def read(self, now: float) -> Optional[SensorReading]:
        """Sample, run every detector, and return a validity-annotated reading.

        An omission (dropped sample) returns ``None``; the caller's timeout
        detector — or the safety kernel's freshness rule — turns persistent
        omissions into a timing failure.
        """
        raw = self.physical.sample(now)
        if raw is None:
            self.omissions += 1
            self.last_verdicts = []
            return None
        verdicts = [detector.check(raw, now) for detector in self.detectors]
        annotated = self.fault_management.assess(raw, verdicts)
        self.last_reading = annotated
        self.last_verdicts = verdicts
        return annotated

    def reset(self) -> None:
        for detector in self.detectors:
            detector.reset()
        self.last_reading = None
        self.last_verdicts = []

    @property
    def has_block_form(self) -> bool:
        """Whether sampling and assessing in blocks equals :meth:`read`: no
        fault may drop a sample, and every detector and the policy have
        block forms."""
        return (
            not any(a.fault.may_drop for a in self.physical.injector.activations)
            and self.fault_management.has_block_form
            and all(detector.has_block_form for detector in self.detectors)
        )

    def assess_block(self, values: np.ndarray, now: np.ndarray) -> np.ndarray:
        """Block form of the validity :meth:`read` gives ``values`` sampled at
        ``now``, from fresh detectors; leading axes are independent rows."""
        verdicts = [(d.dominant, d.suspicions(values, now)) for d in self.detectors]
        return self.fault_management.block_validity(verdicts, np.shape(values))


@dataclass
class AnalyticalModel:
    """Analytical redundancy: a model predicting the measured quantity.

    ``predict`` maps simulated time to the expected value; ``error_bound`` is
    the model's accuracy.  The reliable sensor treats the prediction as one
    more (virtual) contributor to fusion.
    """

    name: str
    predict: Callable[[float], float]
    error_bound: float = 1.0
    validity: float = 0.8

    def reading(self, quantity: str, now: float) -> SensorReading:
        return SensorReading(
            quantity=quantity,
            value=float(self.predict(now)),
            timestamp=now,
            validity=self.validity,
            error_bound=self.error_bound,
            attributes=ReadingAttributes(source_id=f"model:{self.name}"),
        )


class AbstractReliableSensor:
    """An abstract sensor exploiting redundancy and fusion (paper section IV-B).

    Combines any number of :class:`AbstractSensor` replicas (component
    redundancy), optional :class:`AnalyticalModel` predictions (analytical
    redundancy) and a :class:`TemporalFuser` (temporal redundancy) into a
    single reading whose validity reflects the agreement of the evidence.
    """

    def __init__(
        self,
        name: str,
        quantity: str,
        replicas: Sequence[AbstractSensor],
        models: Optional[Sequence[AnalyticalModel]] = None,
        temporal_window: int = 5,
        temporal_max_age: float = 1.0,
        fusion: str = "validity_weighted",
        min_validity: float = 0.05,
    ):
        if not replicas and not models:
            raise ValueError("a reliable sensor needs at least one replica or model")
        if fusion not in ("validity_weighted", "marzullo"):
            raise ValueError(f"unknown fusion strategy: {fusion}")
        self.name = name
        self.quantity = quantity
        self.replicas: List[AbstractSensor] = list(replicas)
        self.models: List[AnalyticalModel] = list(models) if models else []
        self.temporal = TemporalFuser(window=temporal_window, max_age=temporal_max_age)
        self.fusion = fusion
        self.min_validity = min_validity
        self.last_result: Optional[FusionResult] = None

    def read(self, now: float) -> Optional[SensorReading]:
        """Fused reading at time ``now`` (``None`` when no usable evidence exists)."""
        contributions: List[SensorReading] = []
        for replica in self.replicas:
            reading = replica.read(now)
            if reading is not None:
                contributions.append(reading)
        for model in self.models:
            contributions.append(model.reading(self.quantity, now))

        if self.fusion == "marzullo":
            result = marzullo_fuse([r for r in contributions if r.validity > self.min_validity])
        else:
            result = validity_weighted_mean(contributions, min_validity=self.min_validity)
        if result is None:
            # Fall back to temporal redundancy alone.
            result = self.temporal.estimate(now)
            if result is None:
                self.last_result = None
                return None
        fused = SensorReading(
            quantity=self.quantity,
            value=result.value,
            timestamp=now,
            validity=result.validity,
            error_bound=result.error_bound,
            attributes=ReadingAttributes(source_id=self.name),
        )
        self.temporal.add(fused)
        smoothed = self.temporal.estimate(now)
        if smoothed is not None:
            fused = SensorReading(
                quantity=self.quantity,
                value=smoothed.value,
                timestamp=now,
                validity=max(result.validity, smoothed.validity * 0.99),
                error_bound=result.error_bound,
                attributes=ReadingAttributes(source_id=self.name),
            )
        self.last_result = result
        return fused

    def reset(self) -> None:
        for replica in self.replicas:
            replica.reset()
        self.temporal.clear()
        self.last_result = None
