"""Declarative perturbation scenarios for DLS campaigns.

The paper's companion studies measured DLS *flexibility* under
fluctuating PE speeds (Sukhija et al., IPDPS-W 2013) and *resilience*
to PE failures (Sukhija et al., ISPDC 2015).  A :class:`Scenario` is
the campaign-level description of such a perturbed system: which
fraction of PEs is affected, when faults strike, how strong the
background load is.  It is

* **frozen and hashable** — scenarios are value objects, usable as
  dict keys and safe to share across process-pool workers;
* **serializable** — :meth:`Scenario.to_json` / :meth:`Scenario.from_json`
  round-trip through plain JSON, and :func:`load_scenario_file` /
  :meth:`Scenario.save` move them through files;
* **seeded** — every stochastic component (today: :class:`LoadNoise`)
  draws from the run's seeded RNG stream, so a perturbed run is exactly
  as reproducible as a clean one;
* **compilable** — :meth:`Scenario.fluctuation_model` and
  :meth:`Scenario.failstop_model` lower the description to the
  mechanism layer in :mod:`repro.directsim.faults` for a concrete
  worker count ``p``.

Scenarios enter the cache key via ``RunTask.derived_entropy()`` only
when set, so every pre-scenario cache entry remains valid and a
perturbed task can never collide with its clean twin.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import asdict, dataclass
from typing import Any, Optional

from ..directsim.faults import (
    CompositeFluctuation,
    CyclicFluctuation,
    FailStop,
    Fluctuation,
    LognormalFluctuation,
    StepFluctuation,
)

__all__ = [
    "FailStopSpec",
    "LoadNoise",
    "PerturbationEvent",
    "Scenario",
    "SpeedWave",
    "StepSlowdown",
    "affected_workers",
    "load_scenario_file",
]


def _check_fraction(fraction: float) -> None:
    if not 0 < fraction <= 1:
        raise ValueError(
            f"fraction must be in (0, 1], got {fraction}"
        )


def affected_workers(fraction: float, p: int) -> tuple[int, ...]:
    """The worker indices a component with ``fraction`` touches at ``p`` PEs.

    The *last* ``round(fraction * p)`` workers (at least one) are
    affected, so worker 0 — the one the paper's figures anchor on —
    survives every partial perturbation and only a ``fraction`` of 1.0
    can take out the whole machine.
    """
    count = min(p, max(1, int(fraction * p + 0.5)))
    return tuple(range(p - count, p))


@dataclass(frozen=True)
class SpeedWave:
    """Deterministic periodic speed fluctuation (triangle wave).

    Affected PEs oscillate between ``1 - amplitude`` and
    ``1 + amplitude`` times their nominal speed with the given
    ``period`` (simulated seconds).  ``phase_step`` staggers the wave
    across affected workers (in cycles per worker) so they do not all
    slow down at once.
    """

    period: float
    amplitude: float
    fraction: float = 1.0
    phase_step: float = 0.0

    def __post_init__(self) -> None:
        _check_fraction(self.fraction)
        # CyclicFluctuation re-validates period/amplitude; fail early
        # here too so a bad descriptor never reaches a worker process.
        if not (self.period > 0 and math.isfinite(self.period)):
            raise ValueError(
                f"period must be positive and finite, got {self.period}"
            )
        if not 0 <= self.amplitude < 1:
            raise ValueError(
                f"amplitude must be in [0, 1), got {self.amplitude}"
            )

    def compile(self, p: int) -> CyclicFluctuation:
        workers = affected_workers(self.fraction, p)
        phases = {
            w: k * self.phase_step for k, w in enumerate(workers)
        }
        return CyclicFluctuation(
            period=self.period, amplitude=self.amplitude, phases=phases
        )


@dataclass(frozen=True)
class StepSlowdown:
    """A set of PEs slows down permanently at ``time``.

    From ``time`` on, the affected fraction of PEs runs at ``factor``
    times nominal speed (``factor < 1`` slows them down) — the
    "perturbed system" of the IPDPS-W 2013 flexibility study.
    """

    time: float
    factor: float
    fraction: float = 0.25

    def __post_init__(self) -> None:
        _check_fraction(self.fraction)
        if self.time < 0:
            raise ValueError(f"time must be >= 0, got {self.time}")
        if self.factor <= 0 or not math.isfinite(self.factor):
            raise ValueError(
                f"factor must be positive and finite, got {self.factor}"
            )

    def compile(self, p: int) -> StepFluctuation:
        workers = affected_workers(self.fraction, p)
        return StepFluctuation(
            factors={w: (self.time, self.factor) for w in workers}
        )


@dataclass(frozen=True)
class LoadNoise:
    """Stationary stochastic background load (unit-mean lognormal).

    The only stochastic scenario component: each chunk's speed is
    multiplied by an independent ``LogNormal(-sigma^2/2, sigma)`` draw
    from the run's seeded RNG stream.
    """

    sigma: float

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")

    def compile(self, p: int) -> LognormalFluctuation:
        return LognormalFluctuation(sigma=self.sigma)


@dataclass(frozen=True)
class FailStopSpec:
    """A fraction of PEs fail-stops at ``time`` (with work loss)."""

    time: float
    fraction: float = 0.25

    def __post_init__(self) -> None:
        _check_fraction(self.fraction)
        if self.time < 0:
            raise ValueError(f"time must be >= 0, got {self.time}")

    def compile(self, p: int) -> FailStop:
        workers = affected_workers(self.fraction, p)
        return FailStop(fail_times={w: self.time for w in workers})


@dataclass(frozen=True)
class PerturbationEvent:
    """A discrete perturbation instant, for journals and trace exports."""

    label: str
    time: float
    worker: int


_COMPONENT_TYPES: dict[str, type] = {
    "wave": SpeedWave,
    "step": StepSlowdown,
    "noise": LoadNoise,
    "failstop": FailStopSpec,
}


@dataclass(frozen=True)
class Scenario:
    """A named, frozen perturbation descriptor for one campaign axis.

    Any subset of the four components may be present; ``Scenario()``
    with none of them is valid but pointless — prefer ``scenario=None``
    on :class:`~repro.experiments.runner.RunTask`, which keeps the
    hot path and the cache key untouched.

    The fluctuation components compose multiplicatively in the fixed
    order wave -> step -> noise; that order is part of the scenario's
    identity (another order would round the product differently).
    """

    name: str = "custom"
    wave: Optional[SpeedWave] = None
    step: Optional[StepSlowdown] = None
    noise: Optional[LoadNoise] = None
    failstop: Optional[FailStopSpec] = None

    def __post_init__(self) -> None:
        if not self.name or any(c.isspace() for c in self.name):
            raise ValueError(
                f"scenario name must be non-empty without whitespace, "
                f"got {self.name!r}"
            )

    # -- structure -----------------------------------------------------

    @property
    def has_fluctuations(self) -> bool:
        """Whether any speed-fluctuation component is present."""
        return (
            self.wave is not None
            or self.step is not None
            or self.noise is not None
        )

    @property
    def has_faults(self) -> bool:
        """Whether fail-stop faults are present."""
        return self.failstop is not None

    @property
    def is_stochastic(self) -> bool:
        """Whether any component consumes randomness (affects caching
        versions and bit-identity claims, not correctness)."""
        return self.noise is not None and self.noise.sigma > 0

    # -- compilation to the mechanism layer ----------------------------

    def fluctuation_model(self, p: int) -> Optional[Fluctuation]:
        """Lower the fluctuation components to a single model for ``p`` PEs.

        Returns ``None`` when no fluctuation component is present, a
        bare model for exactly one, and a
        :class:`~repro.directsim.faults.CompositeFluctuation` in the
        fixed wave -> step -> noise order otherwise.
        """
        components = tuple(
            spec.compile(p)
            for spec in (self.wave, self.step, self.noise)
            if spec is not None
        )
        if not components:
            return None
        if len(components) == 1:
            return components[0]
        return CompositeFluctuation(components=components)

    def failstop_model(self, p: int) -> Optional[FailStop]:
        """Lower the fail-stop component for ``p`` PEs (or ``None``)."""
        if self.failstop is None:
            return None
        return self.failstop.compile(p)

    def events(self, p: int) -> tuple[PerturbationEvent, ...]:
        """The discrete perturbation instants at ``p`` PEs.

        Continuous components (wave, noise) have no instant; step
        slowdowns and fail-stops yield one event per affected worker.
        These are stamped into ``RunResult.extras["perturbations"]``
        and rendered as instant events in Chrome traces.
        """
        events: list[PerturbationEvent] = []
        if self.step is not None:
            for w in affected_workers(self.step.fraction, p):
                events.append(
                    PerturbationEvent("step-slowdown", self.step.time, w)
                )
        if self.failstop is not None:
            for w in affected_workers(self.failstop.fraction, p):
                events.append(
                    PerturbationEvent("fail-stop", self.failstop.time, w)
                )
        events.sort(key=lambda e: (e.time, e.worker, e.label))
        return tuple(events)

    # -- serialization -------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        """A plain-JSON dict; round-trips through :meth:`from_json`."""
        data: dict[str, Any] = {"name": self.name}
        for key in _COMPONENT_TYPES:
            spec = getattr(self, key)
            if spec is not None:
                data[key] = asdict(spec)
        return data

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "Scenario":
        if not isinstance(data, dict):
            raise ValueError(
                f"scenario JSON must be an object, got {type(data).__name__}"
            )
        unknown = set(data) - set(_COMPONENT_TYPES) - {"name"}
        if unknown:
            raise ValueError(
                f"unknown scenario keys: {sorted(unknown)}; "
                f"expected 'name' plus {sorted(_COMPONENT_TYPES)}"
            )
        kwargs: dict[str, Any] = {"name": data.get("name", "custom")}
        for key, spec_type in _COMPONENT_TYPES.items():
            if key in data:
                try:
                    kwargs[key] = spec_type(**data[key])
                except TypeError as exc:
                    raise ValueError(
                        f"bad {key!r} component: {exc}"
                    ) from None
        return cls(**kwargs)

    def save(self, path: str | os.PathLike) -> None:
        """Write the scenario to ``path`` as JSON (atomically)."""
        path = os.fspath(path)
        directory = os.path.dirname(path) or "."
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(self.to_json(), handle, indent=2)
                handle.write("\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- presentation --------------------------------------------------

    def describe(self) -> str:
        """A compact one-line summary, e.g. for ``scenarios list``."""
        parts: list[str] = []
        if self.wave is not None:
            parts.append(
                f"wave(period={self.wave.period:g}, "
                f"amp={self.wave.amplitude:g}, "
                f"frac={self.wave.fraction:g})"
            )
        if self.step is not None:
            parts.append(
                f"step(t={self.step.time:g}, "
                f"factor={self.step.factor:g}, "
                f"frac={self.step.fraction:g})"
            )
        if self.noise is not None:
            parts.append(f"noise(sigma={self.noise.sigma:g})")
        if self.failstop is not None:
            parts.append(
                f"failstop(t={self.failstop.time:g}, "
                f"frac={self.failstop.fraction:g})"
            )
        return " + ".join(parts) if parts else "clean (no perturbations)"


def load_scenario_file(path: str | os.PathLike) -> Scenario:
    """Load a scenario descriptor from a JSON file."""
    with open(os.fspath(path)) as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
    return Scenario.from_json(data)
