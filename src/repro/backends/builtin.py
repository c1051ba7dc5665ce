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
  ``direct`` run for run.  Under a scenario it serves only what it
  replays, a precomputed schedule: a closed-form technique under speed
  fluctuations.  It degrades to ``direct`` for fail-stop faults, for a
  feedback technique under any scenario and for per-chunk logs.

Each backend implements ``_simulate`` only; the inherited ``run_seeds``
refuses what the backend cannot serve and stamps the results.  Each fast
path runs a replication sweep in blocks of ``BATCH_BLOCK_RUNS`` runs in
which every replication keeps the seed its oracle would give it, and
shares its oracle's entropy namespace, so a (task, runs, campaign seed)
triple names the same runs on every backend (enforced by
``tests/test_differential.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..core.registry import make_factory
from .base import BATCH_BLOCK_RUNS, BackendCapabilities, SimulationBackend
from .registry import register_backend

if TYPE_CHECKING:
    from ..directsim.simulator import DirectSimulator
    from ..experiments.runner import RunTask
    from ..results import RunResult


def _direct_simulation(
    cls: type["DirectSimulator"], task: "RunTask"
) -> "DirectSimulator":
    """A direct-family simulator of ``task``'s cell, with the fault and
    fluctuation models its scenario compiles to."""
    failures = fluctuation = None
    if task.scenario is not None:
        failures = task.scenario.failstop_model(task.params.p)
        fluctuation = task.scenario.fluctuation_model(task.params.p)
    return cls(
        task.params,
        task.workload,
        overhead_model=task.overhead_model,
        record_chunks=task.collect_chunk_log,
        failures=failures,
        fluctuation=fluctuation,
    )


class _MsgBackendBase(SimulationBackend):
    """Shared construction of the master-worker simulation."""

    simulation_cls: type

    def _simulation(self, task: "RunTask"):
        return self.simulation_cls(
            task.params,
            task.workload,
            platform=task.platform,
            overhead_model=task.overhead_model,
            record_chunks=task.collect_chunk_log,
        )

    def _simulate(
        self, task: "RunTask", seeds: Sequence[np.random.SeedSequence]
    ) -> list["RunResult"]:
        sim = self._simulation(task)
        factory = make_factory(task.technique, **task.technique_kwargs)
        return [sim.run(factory, seed) for seed in seeds]


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
class MsgFastBackend(_MsgBackendBase):
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
    block_runs = BATCH_BLOCK_RUNS

    @property
    def simulation_cls(self):
        from ..simgrid.fastpath import FastMasterWorkerSimulation

        return FastMasterWorkerSimulation

    def _simulate(
        self, task: "RunTask", seeds: Sequence[np.random.SeedSequence]
    ) -> list["RunResult"]:
        return self._simulation(task).run_many(
            make_factory(task.technique, **task.technique_kwargs), seeds
        )


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

    def _simulate(
        self, task: "RunTask", seeds: Sequence[np.random.SeedSequence]
    ) -> list["RunResult"]:
        from ..directsim import DirectSimulator
        from ..directsim.faults import AllWorkersFailedError

        sim = _direct_simulation(DirectSimulator, task)
        factory = make_factory(task.technique, **task.technique_kwargs)
        try:
            return [sim.run(factory, seed) for seed in seeds]
        except AllWorkersFailedError as exc:
            raise AllWorkersFailedError(
                f"scenario {task.scenario.name!r} killed every PE of "
                f"{self.task_key(task)} before completion: {exc}"
            ) from exc


@register_backend
class DirectBatchBackend(SimulationBackend):
    """The batch-replication kernel (bit-identical to ``direct``)."""

    name = "direct-batch"
    description = (
        "batch-replication kernel (heap walk or NumPy lock-step loop)"
    )
    capabilities = BackendCapabilities(
        feedback_techniques=True,
        platforms=False,
        fluctuation_scenarios=True,
    )
    fallback = "direct"
    #: bit-identical to direct run for run, so both derive the same
    #: seeds and share result-cache entries
    entropy_namespace = "direct"
    block_runs = BATCH_BLOCK_RUNS

    def unsupported_reason(self, task: "RunTask") -> str | None:
        reason = super().unsupported_reason(task)
        if reason is None and task.scenario is not None:
            from ..core.schedule import closed_form_supported

            if not closed_form_supported(task.technique):
                return (
                    f"a feedback technique under scenario "
                    f"{task.scenario.name!r} runs on 'direct' (the "
                    f"{self.name!r} backend replays only precomputed "
                    "schedules under a scenario)"
                )
        return reason

    def _simulate(
        self, task: "RunTask", seeds: Sequence[np.random.SeedSequence]
    ) -> list["RunResult"]:
        from ..directsim.batch import BatchDirectSimulator

        # run_seeds refused fail-stop and chunk-log tasks, which the
        # batch kernels do not replay
        return _direct_simulation(BatchDirectSimulator, task).run_batch(
            make_factory(task.technique, **task.technique_kwargs), seeds
        )
