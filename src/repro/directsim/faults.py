"""Fault and perturbation models for the direct simulator.

The paper's companion studies examined the *flexibility* of the DLS
techniques under fluctuating load (Sukhija et al., IPDPS-W 2013, ref [2])
and their *resilience* to PE failures (Sukhija et al., ISPDC 2015,
ref [3]).  These models let the direct simulator regenerate the spirit of
those experiments:

* :class:`FailStop` — a PE dies at a given time; the chunk it was
  executing is lost and its task region is requeued to the scheduler
  (fail-stop with work loss, the model of [3]).
* Fluctuations — a per-chunk multiplicative speed factor modelling
  background load: :class:`LognormalFluctuation` (stationary noise),
  :class:`StepFluctuation` (a PE slows down at a point in time) and
  :class:`CyclicFluctuation` (deterministic periodic background load),
  as in the fluctuating-load scenarios of [2].
  :class:`CompositeFluctuation` multiplies several models together.

These are the *mechanism* layer.  The declarative, campaign-level
description of a perturbed experiment — which fraction of PEs slows
down, when faults strike, how much noise — lives in
:mod:`repro.scenarios`, whose :class:`~repro.scenarios.Scenario`
descriptors compile down to the models in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Protocol

import numpy as np


@dataclass(frozen=True)
class FailStop:
    """Fail-stop failure injection.

    ``fail_times`` maps worker index -> simulated failure time.  A worker
    whose chunk would complete after its failure time loses that chunk
    (the tasks are requeued); it never requests work again.
    """

    fail_times: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for worker, t in self.fail_times.items():
            if worker < 0:
                raise ValueError(f"invalid worker index {worker}")
            if t < 0:
                raise ValueError(f"failure time must be >= 0, got {t}")

    def fails_before(self, worker: int, time: float) -> bool:
        """Whether ``worker`` is already dead at ``time``."""
        t = self.fail_times.get(worker)
        return t is not None and time >= t

    def fails_during(self, worker: int, start: float, end: float) -> bool:
        """Whether ``worker`` dies before finishing a chunk in [start, end)."""
        t = self.fail_times.get(worker)
        return t is not None and t < end


class Fluctuation(Protocol):
    """Per-chunk speed multiplier model (>= values speed the PE up)."""

    def multiplier(self, worker: int, time: float,
                   rng: np.random.Generator) -> float:
        """The speed factor for a chunk starting at ``time``."""
        ...


@dataclass(frozen=True)
class LognormalFluctuation:
    """Stationary multiplicative load noise with unit mean.

    The multiplier is ``LogNormal(-sigma^2/2, sigma)`` so the expected
    speed factor is exactly 1: fluctuation adds variability, not bias.
    """

    sigma: float

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")

    def multiplier(self, worker, time, rng) -> float:
        if self.sigma == 0:
            return 1.0
        return float(
            rng.lognormal(mean=-self.sigma**2 / 2.0, sigma=self.sigma)
        )


@dataclass(frozen=True)
class StepFluctuation:
    """A set of PEs slows down (or speeds up) at a point in time.

    ``factors`` maps worker -> (time, factor); from ``time`` on, chunks of
    that worker run at ``factor`` times their nominal speed.
    """

    factors: Mapping[int, tuple[float, float]]

    def __post_init__(self) -> None:
        for worker, (time, factor) in self.factors.items():
            if time < 0:
                raise ValueError(f"step time must be >= 0, got {time}")
            if factor <= 0 or not math.isfinite(factor):
                raise ValueError(
                    f"factor must be positive and finite, got {factor}"
                )
            if worker < 0:
                raise ValueError(f"invalid worker index {worker}")

    def multiplier(self, worker, time, rng) -> float:
        entry = self.factors.get(worker)
        if entry is None:
            return 1.0
        step_time, factor = entry
        return factor if time >= step_time else 1.0


@dataclass(frozen=True)
class CyclicFluctuation:
    """Deterministic periodic background load (a triangle wave).

    The multiplier for an affected PE is ``1 + amplitude * tri(x)``
    with ``x = time / period + phase`` and ``tri`` a triangle wave in
    ``[-1, 1]``.  ``phases`` maps worker -> phase offset (in cycles);
    workers absent from the mapping are unaffected (multiplier 1.0).
    """

    period: float
    amplitude: float
    phases: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (self.period > 0 and math.isfinite(self.period)):
            raise ValueError(
                f"period must be positive and finite, got {self.period}"
            )
        if not 0 <= self.amplitude < 1:
            raise ValueError(
                "amplitude must be in [0, 1) so speeds stay positive, "
                f"got {self.amplitude}"
            )
        for worker in self.phases:
            if worker < 0:
                raise ValueError(f"invalid worker index {worker}")

    def multiplier(self, worker, time, rng) -> float:
        phase = self.phases.get(worker)
        if phase is None:
            return 1.0
        x = time / self.period + phase
        u = x - math.floor(x)
        return 1.0 + self.amplitude * (4.0 * abs(u - 0.5) - 1.0)


@dataclass(frozen=True)
class CompositeFluctuation:
    """The product of several fluctuation models, applied in order."""

    components: tuple = ()

    def multiplier(self, worker, time, rng) -> float:
        m = 1.0
        for component in self.components:
            m *= component.multiplier(worker, time, rng)
        return m


class SimulationError(RuntimeError):
    """A simulated campaign cannot make progress (e.g. every PE died)."""


class AllWorkersFailedError(SimulationError):
    """Raised when every PE has failed while tasks remain."""
