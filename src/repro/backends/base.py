"""Backend protocol: capabilities, fallback events, replication blocks.

A *backend* is one execution substrate for a :class:`~repro.experiments.
runner.RunTask` — the event-driven MSG stack, its compiled fast path, the
direct Hagerup-style simulator, or the vectorized batch kernel.  Each
backend declares what it can simulate as a :class:`BackendCapabilities`
record; dispatch (``repro.backends.registry.resolve_backend``) checks a
task's requirements against those capabilities and walks the backend's
declared :attr:`~SimulationBackend.fallback` chain when they are not
met, emitting a :class:`FallbackEvent` for every degradation instead of
falling back silently inside a simulator module.

Adding a new backend is a registration, not a runner rewrite::

    from repro.backends import SimulationBackend, register_backend

    @register_backend
    class PerturbedBackend(SimulationBackend):
        name = "perturbed"
        description = "SimAS-style perturbation-aware simulator"
        capabilities = BackendCapabilities(...)
        fallback = "msg"

        def run(self, task, seed):
            ...
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, ClassVar

import numpy as np

if TYPE_CHECKING:  # avoid a runtime cycle: the runner imports this package
    from ..experiments.runner import RunTask
    from ..results import RunResult

#: replications per pooled replication block.  Every replication keeps
#: its own seed, so the block size sets only the granularity of pool
#: dispatch (and of schedule precomputation), never a result.
BATCH_BLOCK_RUNS = 64


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can simulate, one flag per scenario dimension.

    The flags double as the rows of the documentation's capability
    matrix (:func:`repro.backends.registry.capability_matrix`), so every
    field needs a short human-readable description in
    :data:`CAPABILITY_DESCRIPTIONS`.
    """

    #: techniques whose chunk sizes depend on measured execution times
    #: (AWF family, AF, BOLD)
    adaptive_techniques: bool = False
    #: techniques whose chunk sequence depends on which worker requests
    #: (WF, PLS, RND) — anything without a precomputable schedule
    nondeterministic_schedules: bool = False
    #: platform-aware network modelling (latencies, heterogeneous hosts)
    platforms: bool = False
    #: per-chunk execution logs (``RunResult.chunk_log``) on request
    #: (``RunTask.collect_chunk_log``)
    chunk_log: bool = False
    #: scenario speed-fluctuation models (waves, step slowdowns, load
    #: noise — ``RunTask.scenario`` with fluctuation components)
    fluctuation_scenarios: bool = False
    #: scenario fail-stop fault injection with work loss
    #: (``RunTask.scenario`` with a failstop component)
    fault_scenarios: bool = False


#: capability field -> short description for generated documentation
CAPABILITY_DESCRIPTIONS: dict[str, str] = {
    "adaptive_techniques": "adaptive techniques (AWF*, AF, BOLD)",
    "nondeterministic_schedules": "worker-dependent schedules (WF, PLS, RND)",
    "platforms": "platform-aware network modelling",
    "chunk_log": "per-chunk execution logs (collect_chunk_log)",
    "fluctuation_scenarios": "scenario speed fluctuations (wave/step/noise)",
    "fault_scenarios": "scenario fail-stop faults (work loss)",
}


def capability_names() -> list[str]:
    """The capability flags in declaration order."""
    return [f.name for f in fields(BackendCapabilities)]


@dataclass(frozen=True)
class FallbackEvent:
    """One recorded degradation: requested backend -> chosen.

    Recorded by ``resolve_backend`` whenever a requested backend cannot
    serve a task and dispatch moves to its declared fallback — the one
    place anything falls back; surfaced in the artifact manifests and
    as ``note:`` lines of ``repro-dls run fig5 ...`` instead of the
    degradation happening silently.
    """

    task_key: str
    requested: str
    chosen: str
    reason: str

    def describe(self) -> str:
        return (
            f"{self.requested} -> {self.chosen} for {self.task_key}: "
            f"{self.reason}"
        )

    def to_json(self) -> dict:
        return {
            "task": self.task_key,
            "requested": self.requested,
            "chosen": self.chosen,
            "reason": self.reason,
        }


class BackendResolutionError(ValueError):
    """No backend in the fallback chain can serve the task."""


@dataclass(frozen=True)
class ReplicationBlock:
    """A picklable block of replications of one cell, run by one backend.

    Blocks distribute over the process pool like individual ``RunTask``
    objects, but each block amortises the chunk-schedule precomputation
    (and, for the batch kernel, steps its replications together).
    ``seed_entropies`` holds one entropy tuple per replication, the
    tuples :func:`repro.workloads.replication_entropies` gives per-run
    tasks (``expand_replications``), so the block partitioning cannot
    affect results.
    """

    backend: str
    task: "RunTask"
    seed_entropies: tuple[tuple[int, ...], ...]

    @property
    def runs(self) -> int:
        return len(self.seed_entropies)

    def execute(self) -> list["RunResult"]:
        from .registry import get_backend

        return get_backend(self.backend).run_block(self)


class SimulationBackend(ABC):
    """One execution substrate for :class:`RunTask` objects.

    Subclasses declare their identity and capabilities as class
    attributes and implement :meth:`run`; backends supporting pooled
    block execution additionally implement :meth:`replication_blocks`
    and :meth:`run_block`.
    """

    #: registry name; the value of ``RunTask.simulator`` / CLI ``--simulator``
    name: ClassVar[str] = ""
    #: one-line description for ``repro-dls backends`` and the docs
    description: ClassVar[str] = ""
    #: what this backend can simulate
    capabilities: ClassVar[BackendCapabilities] = BackendCapabilities()
    #: registry name of the backend dispatch degrades to when this one
    #: cannot serve a task (None = resolution fails instead)
    fallback: ClassVar[str | None] = None
    #: namespace used for derived seed entropy.  Backends that are
    #: bit-identical to another backend share its namespace so un-seeded
    #: tasks derive the same seeds on both (msg-fast uses "msg",
    #: direct-batch "direct").
    entropy_namespace: ClassVar[str] = ""
    #: version of this backend's *results*.  Folded into result-cache
    #: keys (``repro.cache``) through the entropy-namespace backend:
    #: bump it when an intentional simulator change alters simulated
    #: observables, so every cached result of the namespace misses
    #: cleanly.
    result_version: ClassVar[int] = 1

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if cls.name and not cls.entropy_namespace:
            cls.entropy_namespace = cls.name

    # -- capability checking ---------------------------------------------
    def unsupported_reason(self, task: "RunTask") -> str | None:
        """Why this backend cannot serve ``task`` (None = it can).

        The generic check compares the task's requirements against
        :attr:`capabilities`; backends with additional constraints
        extend it.  The returned string feeds :class:`FallbackEvent`
        reasons and the documentation's fallback semantics.
        """
        from ..core.registry import get_technique
        from ..core.schedule import schedule_ineligibility

        caps = self.capabilities
        cls = get_technique(task.technique)
        schedule_reason = schedule_ineligibility(cls)
        if schedule_reason is not None:
            if cls.adaptive and not caps.adaptive_techniques:
                return schedule_reason
            if not cls.deterministic_schedule and (
                not caps.nondeterministic_schedules
            ):
                return schedule_reason
        if task.platform is not None and not caps.platforms:
            return (
                "platform-aware network modelling is not supported by "
                f"the {self.name!r} backend"
            )
        if task.collect_chunk_log and not caps.chunk_log:
            return (
                "per-chunk execution logs are not recorded by the "
                f"{self.name!r} backend"
            )
        if task.scenario is not None:
            if task.scenario.has_faults and not caps.fault_scenarios:
                return (
                    f"scenario {task.scenario.name!r} injects fail-stop "
                    f"faults, which the {self.name!r} backend cannot "
                    "simulate"
                )
            if task.scenario.has_fluctuations and (
                not caps.fluctuation_scenarios
            ):
                return (
                    f"scenario {task.scenario.name!r} perturbs PE speeds, "
                    f"which the {self.name!r} backend cannot simulate"
                )
        return None

    @staticmethod
    def task_key(task: "RunTask") -> str:
        """A compact human-readable cell identifier for fallback events."""
        return (
            f"{task.technique}(n={task.params.n}, p={task.params.p})"
        )

    def stamp_stats(self, result: "RunResult") -> "RunResult":
        """Record this backend as the producer on the result's stats.

        The simulators fill the kernel-level fields of
        :class:`~repro.obs.stats.RunStats` but do not know which
        registry entry drove them; the backend adds its name here —
        after any capability fallback, so the stamp names the substrate
        that actually ran.  A minimal stats block is created when the
        simulator attached none.
        """
        from ..obs.stats import RunStats

        if result.stats is None:
            result.stats = RunStats(backend=self.name)
        else:
            result.stats.backend = self.name
        return result

    # -- execution --------------------------------------------------------
    @abstractmethod
    def run(self, task: "RunTask", seed: np.random.SeedSequence) -> "RunResult":
        """Execute one run of ``task`` under ``seed``."""

    def replication_blocks(
        self, task: "RunTask", runs: int, campaign_seed: int | None
    ) -> list[ReplicationBlock] | None:
        """Split ``runs`` replications into pooled blocks, or None.

        Returning None sends the replications down the per-run path
        (``expand_replications`` + per-task execution).  Only called
        after the task has resolved to this backend, so implementations
        may assume :meth:`unsupported_reason` returned None.
        """
        return None

    def run_block(self, block: ReplicationBlock) -> list["RunResult"]:
        """Execute one replication block produced by this backend."""
        raise NotImplementedError(
            f"backend {self.name!r} does not execute replication blocks"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"
