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

        def _simulate(self, task, seeds):
            ...  # one RunResult per seed
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, ClassVar, Sequence

import numpy as np

if TYPE_CHECKING:  # avoid a runtime cycle: the runner imports this package
    from ..experiments.runner import RunTask
    from ..results import RunResult

#: replications per pooled block of the fast paths.  Every replication
#: keeps its own seed, so the block size sets only the granularity of
#: pool dispatch (and of schedule precomputation), never a result.
BATCH_BLOCK_RUNS = 64


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can simulate, one flag per scenario dimension.

    The flags double as the rows of the documentation's capability
    matrix (:func:`repro.backends.registry.capability_matrix`), so every
    field needs a short human-readable description in
    :data:`CAPABILITY_DESCRIPTIONS`.
    """

    #: techniques without a precomputable chunk schedule: the adaptive
    #: ones (AWF family, AF), whose chunk sizes depend on measured times,
    #: and those that depend on the requesting worker or the run's
    #: progress (BOLD, WF, PLS, RND)
    feedback_techniques: bool = False
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
    "feedback_techniques":
        "feedback techniques (AWF*, AF, BOLD, WF, PLS, RND)",
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
    """No backend can serve the task.

    Raised when resolution exhausts the fallback chain, and when a
    backend is handed a task it rejects (:meth:`SimulationBackend.
    run_seeds` called directly, bypassing resolution).
    """


@dataclass(frozen=True)
class ReplicationBlock:
    """A picklable block of runs of one task, run by one backend.

    The one thing the campaign executor runs: a campaign task is a block
    of one seed, and a replication sweep is cut into blocks of the
    backend's :attr:`~SimulationBackend.block_runs` (a fast path
    amortises one chunk-schedule precomputation over a block; the batch
    kernel also steps its replications together).  ``seed_entropies``
    holds one entropy tuple per run, the tuples
    :func:`repro.workloads.replication_entropies` gives a sweep, so the
    partitioning cannot affect results.
    """

    backend: str
    task: "RunTask"
    seed_entropies: tuple[tuple[int, ...], ...]

    @property
    def runs(self) -> int:
        return len(self.seed_entropies)

    def execute(self) -> list["RunResult"]:
        from .registry import get_backend

        return get_backend(self.backend).run_seeds(self.task, [
            np.random.SeedSequence(entropy=list(entropy))
            for entropy in self.seed_entropies
        ])


class SimulationBackend(ABC):
    """One execution substrate for :class:`RunTask` objects.

    Subclasses declare their identity and capabilities as class
    attributes and implement :meth:`_simulate`; :meth:`run_seeds`, the
    one way a backend runs a task, guards and stamps it.
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
    #: runs per replication block: 1 keeps one pool item per run; the
    #: fast paths amortise a schedule precomputation over
    #: :data:`BATCH_BLOCK_RUNS`
    block_runs: ClassVar[int] = 1

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
        if not caps.feedback_techniques:
            reason = schedule_ineligibility(get_technique(task.technique))
            if reason is not None:
                return reason
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

    # -- execution --------------------------------------------------------
    def replication_blocks(
        self, task: "RunTask", entropies: Sequence[tuple[int, ...]]
    ) -> list[ReplicationBlock]:
        """The runs of ``task``, one per entropy, in blocks of
        :attr:`block_runs`."""
        entropies = tuple(entropies)
        return [
            ReplicationBlock(
                backend=self.name,
                task=task,
                seed_entropies=entropies[i:i + self.block_runs],
            )
            for i in range(0, len(entropies), self.block_runs)
        ]

    def run_seeds(
        self, task: "RunTask", seeds: Sequence[np.random.SeedSequence]
    ) -> list["RunResult"]:
        """One run of ``task`` per seed, on this backend.

        Refuses a task :meth:`unsupported_reason` rejects, so a caller
        that bypasses resolution never gets a run without the task's
        faults, fluctuations, platform or chunk log.  The results name
        this backend on their stats and, under a scenario, carry its
        name and declared perturbation instants as extras.
        """
        reason = self.unsupported_reason(task)
        if reason is not None:
            raise BackendResolutionError(
                f"the {self.name!r} backend cannot serve "
                f"{self.task_key(task)}: {reason}"
            )
        extras = {}
        if task.scenario is not None:
            extras["scenario"] = task.scenario.name
            extras["perturbations"] = tuple(
                (event.label, event.time, event.worker)
                for event in task.scenario.events(task.params.p)
            )
        results = self._simulate(task, seeds)
        for result in results:
            result.stats.backend = self.name
            result.extras.update(extras)
        return results

    @abstractmethod
    def _simulate(
        self, task: "RunTask", seeds: Sequence[np.random.SeedSequence]
    ) -> list["RunResult"]:
        """One run of ``task`` per seed; :meth:`run_seeds` guards it."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"
