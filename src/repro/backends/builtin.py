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
* ``direct-batch`` — the batch-replication kernel; degrades
  to ``direct`` for techniques without a precomputable schedule and for
  fail-stop scenarios on closed-form techniques (dynamic requeueing
  invalidates a precomputed schedule).

The run/seed semantics are exactly those the dispatch chains in
``runner.py`` used before the registry existed, so results are
bit-identical to the pre-registry code paths (enforced by
``tests/test_batch_kernel.py`` and ``tests/test_fastpath_msg.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

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
        adaptive_techniques=True,
        nondeterministic_schedules=True,
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
class MsgFastBackend(_MsgBackendBase):
    """The compiled MSG fast path (bit-identical to ``msg``)."""

    name = "msg-fast"
    description = "compiled MSG master-worker loop (bit-identical to msg)"
    capabilities = BackendCapabilities(
        adaptive_techniques=False,
        nondeterministic_schedules=False,
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

    def replication_blocks(
        self, task: "RunTask", runs: int, campaign_seed: int | None
    ) -> list[ReplicationBlock]:
        """Consecutive blocks that share one schedule precomputation.

        Every run keeps the seed ``expand_replications`` would give it
        (:func:`~repro.workloads.replication_entropies`), so the block
        partitioning cannot affect results.
        """
        entropies = replication_entropies(campaign_seed, runs)
        return [
            ReplicationBlock(
                backend=self.name,
                task=task,
                runs=len(entropies[i:i + BATCH_BLOCK_RUNS]),
                seed_entropies=tuple(entropies[i:i + BATCH_BLOCK_RUNS]),
            )
            for i in range(0, runs, BATCH_BLOCK_RUNS)
        ]

    def run_block(self, block: ReplicationBlock) -> list["RunResult"]:
        sim = self._simulation(block.task)
        seeds = [
            np.random.SeedSequence(entropy=list(entropy))
            for entropy in block.seed_entropies
        ]
        return [
            self.stamp_stats(result)
            for result in sim.run_many(_scheduler_factory(block.task), seeds)
        ]


@register_backend
class DirectBackend(SimulationBackend):
    """The scalar Hagerup-style chunk-level simulator."""

    name = "direct"
    description = "scalar chunk-level simulator (Hagerup-style heap loop)"
    capabilities = BackendCapabilities(
        adaptive_techniques=True,
        nondeterministic_schedules=True,
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
class DirectBatchBackend(SimulationBackend):
    """The batch-replication kernel."""

    name = "direct-batch"
    description = (
        "batch-replication kernel (heap walk or NumPy lock-step loop)"
    )
    capabilities = BackendCapabilities(
        adaptive_techniques=True,
        nondeterministic_schedules=True,
        platforms=False,
        fluctuation_scenarios=True,
        fault_scenarios=True,
    )
    fallback = "direct"

    #: result version of the *stepping-path* stochastic cells.  The
    #: stepping kernel replaced the scalar fallback for the feedback-loop
    #: techniques: deterministic workloads stay bit-identical (scalar-era
    #: cache entries remain clean hits), but stochastic workloads moved
    #: from per-run seed streams to block sampling, so those cells'
    #: observables changed — their scalar-era entries must miss cleanly.
    STEPPING_RESULT_VERSION = 2
    #: result version of the *closed-form* cells.  Their kernel sums
    #: ``total_task_time`` (and so ``speedup``) in chunk order, like
    #: ``DirectSimulator``, instead of NumPy's pairwise row sum; every
    #: other field is unchanged, but the last ulp moved on many cells,
    #: so their earlier entries must miss cleanly.
    CLOSED_FORM_RESULT_VERSION = 2

    def unsupported_reason(self, task: "RunTask") -> str | None:
        reason = super().unsupported_reason(task)
        if reason is not None:
            return reason
        from ..directsim.batch import batch_supported

        if not batch_supported(task.technique):
            return (
                "no vectorized path for this technique: neither a "
                "precomputable chunk schedule nor a batched stepping "
                "state"
            )
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

    def result_version_for(self, task: "RunTask") -> int:
        from ..core.schedule import closed_form_supported

        if closed_form_supported(task.technique):
            return self.CLOSED_FORM_RESULT_VERSION
        if task.workload.deterministic:
            return self.result_version
        return self.STEPPING_RESULT_VERSION

    def _simulator(self, task: "RunTask"):
        from ..directsim.batch import BatchDirectSimulator

        failures, fluctuation = _scenario_models(task)
        return BatchDirectSimulator(
            task.params,
            task.workload,
            overhead_model=task.overhead_model,
            failures=failures,
            fluctuation=fluctuation,
        )

    def _run_guarded(self, task: "RunTask", reps: int,
                     seed: np.random.SeedSequence) -> list["RunResult"]:
        from ..directsim.faults import AllWorkersFailedError

        try:
            results = self._simulator(task).run_batch(
                _scheduler_factory(task), reps, seed
            )
        except AllWorkersFailedError as exc:
            raise _scenario_abort(task, exc) from exc
        return [
            self.stamp_stats(_stamp_scenario(task, result))
            for result in results
        ]

    def run(
        self, task: "RunTask", seed: np.random.SeedSequence
    ) -> "RunResult":
        return self._run_guarded(task, 1, seed)[0]

    def replication_blocks(
        self, task: "RunTask", runs: int, campaign_seed: int | None
    ) -> list[ReplicationBlock]:
        """Fixed-size blocks, each with one spawned block-level seed."""
        counts = [BATCH_BLOCK_RUNS] * (runs // BATCH_BLOCK_RUNS)
        if runs % BATCH_BLOCK_RUNS:
            counts.append(runs % BATCH_BLOCK_RUNS)
        entropies = replication_entropies(campaign_seed, len(counts))
        return [
            ReplicationBlock(
                backend=self.name,
                task=task,
                runs=count,
                seed_entropy=entropy,
            )
            for count, entropy in zip(counts, entropies)
        ]

    def run_block(self, block: ReplicationBlock) -> list["RunResult"]:
        seed = np.random.SeedSequence(entropy=list(block.seed_entropy))
        return self._run_guarded(block.task, block.runs, seed)
