"""The four built-in simulation backends.

Each backend wraps one execution substrate behind the uniform
:class:`~repro.backends.base.SimulationBackend` interface:

* ``msg`` — the event-driven SimGrid-MSG-like master-worker stack; the
  most capable network-modelling backend.  Perturbation scenarios
  (``RunTask.scenario``) are the one axis it lacks, so it degrades to
  ``direct`` — the only family with the fault/fluctuation models — with
  a recorded event.
* ``msg-fast`` — the compiled MSG fast path, bit-identical to ``msg``
  for closed-form techniques; degrades to ``msg`` otherwise.
* ``direct`` — the scalar Hagerup-style chunk-level simulator; the only
  backend supporting *every* scenario model on every technique.
* ``direct-batch`` — the batch-replication kernel, bit-identical to
  ``direct`` run for run; degrades to ``direct`` for per-chunk logs and
  for fail-stop scenarios on closed-form techniques (dynamic requeueing
  invalidates a precomputed schedule).

Each fast path runs a replication sweep as pooled blocks in which every
replication keeps the seed its oracle would give it, and shares its
oracle's entropy namespace, so a (task, runs, campaign seed) triple
names the same runs on every backend (enforced by
``tests/test_differential.py``).
"""

from __future__ import annotations

from abc import abstractmethod
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..core.params import SchedulingParams
from ..core.registry import get_technique
from ..workloads.generator import replication_entropies
from .base import (
    BATCH_BLOCK_RUNS,
    BackendCapabilities,
    ReplicationBlock,
    SimulationBackend,
)
from .registry import register_backend

if TYPE_CHECKING:
    from ..core.base import Scheduler
    from ..experiments.runner import RunTask
    from ..results import RunResult


def _scheduler_factory(
    task: "RunTask",
) -> Callable[[SchedulingParams], "Scheduler"]:
    cls = get_technique(task.technique)
    kwargs = task.technique_kwargs
    return lambda params: cls(params, **kwargs)


def _scenario_models(task: "RunTask"):
    """(failures, fluctuation) mechanism models from the task's scenario."""
    if task.scenario is None:
        return None, None
    p = task.params.p
    return (
        task.scenario.failstop_model(p),
        task.scenario.fluctuation_model(p),
    )


def _scenario_abort(task: "RunTask", exc: Exception) -> Exception:
    """An all-workers-failed error that names the scenario and cell."""
    from ..directsim.faults import AllWorkersFailedError

    name = task.scenario.name if task.scenario is not None else "<custom>"
    return AllWorkersFailedError(
        f"scenario {name!r} killed every PE of "
        f"{SimulationBackend.task_key(task)} before completion: {exc}"
    )


def _stamp_scenario(task: "RunTask", result: "RunResult") -> "RunResult":
    """Stamp scenario identity + declared perturbation instants.

    Both direct backends stamp the identical extras (the tuples below
    are pure functions of the scenario and ``p``), so extras equality —
    and with it whole-result bit-identity — holds across backends.
    """
    if task.scenario is None:
        return result
    result.extras["scenario"] = task.scenario.name
    result.extras["perturbations"] = tuple(
        (event.label, event.time, event.worker)
        for event in task.scenario.events(task.params.p)
    )
    return result


class _BlockBackend(SimulationBackend):
    """A fast path that runs replication sweeps as pooled blocks.

    Every run keeps the seed ``expand_replications`` would give it
    (:func:`~repro.workloads.replication_entropies`), so the block
    partitioning cannot affect results.
    """

    def replication_blocks(
        self, task: "RunTask", runs: int, campaign_seed: int | None
    ) -> list[ReplicationBlock]:
        """Consecutive blocks that share one schedule precomputation."""
        entropies = tuple(replication_entropies(campaign_seed, runs))
        return [
            ReplicationBlock(
                backend=self.name,
                task=task,
                seed_entropies=entropies[i:i + BATCH_BLOCK_RUNS],
            )
            for i in range(0, runs, BATCH_BLOCK_RUNS)
        ]

    def run_block(self, block: ReplicationBlock) -> list["RunResult"]:
        return self.run_seeds(block.task, [
            np.random.SeedSequence(entropy=list(entropy))
            for entropy in block.seed_entropies
        ])

    @abstractmethod
    def run_seeds(
        self, task: "RunTask", seeds: Sequence[np.random.SeedSequence]
    ) -> list["RunResult"]:
        """One run of ``task`` per seed, each equal to :meth:`run`'s."""


class _MsgBackendBase(SimulationBackend):
    """Shared construction of the master-worker simulation."""

    simulation_cls: type

    def _simulation(self, task: "RunTask"):
        from ..simgrid.masterworker import MasterWorkerConfig

        config = MasterWorkerConfig(
            overhead_model=task.overhead_model,
            record_chunks=task.collect_chunk_log,
        )
        return self.simulation_cls(
            task.params, task.workload, platform=task.platform, config=config
        )

    def run(
        self, task: "RunTask", seed: np.random.SeedSequence
    ) -> "RunResult":
        return self.stamp_stats(
            self._simulation(task).run(_scheduler_factory(task), seed)
        )


@register_backend
class MsgBackend(_MsgBackendBase):
    """The event-driven MSG simulator (the reference substrate)."""

    name = "msg"
    description = "event-driven SimGrid-MSG-like master-worker simulator"
    capabilities = BackendCapabilities(
        feedback_techniques=True,
        platforms=True,
        chunk_log=True,
    )
    #: the MSG stack has no fault/fluctuation models, so scenario tasks
    #: degrade (with a recorded event) to the direct family — the one
    #: that does.  Tasks combining a scenario with a platform (an
    #: MSG-only axis) exhaust the chain and fail loudly.
    fallback = "direct"

    @property
    def simulation_cls(self):
        from ..simgrid.masterworker import MasterWorkerSimulation

        return MasterWorkerSimulation


@register_backend
class MsgFastBackend(_MsgBackendBase, _BlockBackend):
    """The compiled MSG fast path (bit-identical to ``msg``)."""

    name = "msg-fast"
    description = "compiled MSG master-worker loop (bit-identical to msg)"
    capabilities = BackendCapabilities(
        feedback_techniques=False,
        platforms=True,
        chunk_log=True,
    )
    fallback = "msg"
    #: bit-identical to msg, so un-seeded tasks derive the same seeds on
    #: both — the equality is visible even for single un-seeded tasks
    entropy_namespace = "msg"

    @property
    def simulation_cls(self):
        from ..simgrid.fastpath import FastMasterWorkerSimulation

        return FastMasterWorkerSimulation

    def run_seeds(
        self, task: "RunTask", seeds: Sequence[np.random.SeedSequence]
    ) -> list["RunResult"]:
        sim = self._simulation(task)
        return [
            self.stamp_stats(result)
            for result in sim.run_many(_scheduler_factory(task), seeds)
        ]


@register_backend
class DirectBackend(SimulationBackend):
    """The scalar Hagerup-style chunk-level simulator."""

    name = "direct"
    description = "scalar chunk-level simulator (Hagerup-style heap loop)"
    capabilities = BackendCapabilities(
        feedback_techniques=True,
        platforms=False,
        chunk_log=True,
        fluctuation_scenarios=True,
        fault_scenarios=True,
    )
    fallback = None

    def run(
        self, task: "RunTask", seed: np.random.SeedSequence
    ) -> "RunResult":
        from ..directsim import DirectSimulator
        from ..directsim.faults import AllWorkersFailedError

        failures, fluctuation = _scenario_models(task)
        sim = DirectSimulator(
            task.params,
            task.workload,
            overhead_model=task.overhead_model,
            record_chunks=task.collect_chunk_log,
            failures=failures,
            fluctuation=fluctuation,
        )
        try:
            result = sim.run(_scheduler_factory(task), seed)
        except AllWorkersFailedError as exc:
            raise _scenario_abort(task, exc) from exc
        return self.stamp_stats(_stamp_scenario(task, result))


@register_backend
class DirectBatchBackend(_BlockBackend):
    """The batch-replication kernel (bit-identical to ``direct``)."""

    name = "direct-batch"
    description = (
        "batch-replication kernel (heap walk or NumPy lock-step loop)"
    )
    capabilities = BackendCapabilities(
        feedback_techniques=True,
        platforms=False,
        fluctuation_scenarios=True,
        fault_scenarios=True,
    )
    fallback = "direct"
    #: bit-identical to direct run for run, so both derive the same
    #: seeds and share result-cache entries
    entropy_namespace = "direct"

    def unsupported_reason(self, task: "RunTask") -> str | None:
        reason = super().unsupported_reason(task)
        if reason is not None:
            return reason
        if task.scenario is not None and task.scenario.has_faults:
            from ..core.schedule import closed_form_supported

            if closed_form_supported(task.technique):
                return (
                    f"scenario {task.scenario.name!r} injects fail-stop "
                    "faults, whose requeued work invalidates the "
                    "precomputed closed-form schedule this technique "
                    "runs on (only the stepping path reschedules "
                    "dynamically)"
                )
        return None

    def run_seeds(
        self, task: "RunTask", seeds: Sequence[np.random.SeedSequence]
    ) -> list["RunResult"]:
        from ..directsim.batch import BatchDirectSimulator
        from ..directsim.faults import AllWorkersFailedError

        failures, fluctuation = _scenario_models(task)
        simulator = BatchDirectSimulator(
            task.params,
            task.workload,
            overhead_model=task.overhead_model,
            failures=failures,
            fluctuation=fluctuation,
        )
        try:
            results = simulator.run_batch(_scheduler_factory(task), seeds)
        except AllWorkersFailedError as exc:
            raise _scenario_abort(task, exc) from exc
        return [
            self.stamp_stats(_stamp_scenario(task, result))
            for result in results
        ]

    def run(
        self, task: "RunTask", seed: np.random.SeedSequence
    ) -> "RunResult":
        return self.run_seeds(task, [seed])[0]
