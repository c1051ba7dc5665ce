"""The master-worker DLS application on the MSG layer (Figure 1).

The execution model follows Section II of the paper exactly:

    "When starting the simulation, all workers are in idle state, and
    send work request messages to the master.  When the master receives a
    work request message, it computes the chunk size for the chosen DLS
    technique and sends the computed number of tasks to the requesting
    worker.  The worker simulates executing the tasks, and when it
    finishes, it sends again a work request message to the master.  On
    completion of all tasks, the master sends finalization messages to
    the workers, and the simulation ends."

Adaptive techniques receive their timing feedback piggy-backed on the
next work-request message of the same worker, which is when the master
could physically learn about the completion.
"""

from __future__ import annotations

import time
from typing import Callable, Generator, Sequence

import numpy as np

from ..core.base import Scheduler
from ..core.params import SchedulingParams
from ..metrics.wasted_time import OverheadModel
from ..obs.stats import RunStats
from ..results import ChunkExecution, RunResult
from ..workloads.distributions import Workload
from ..workloads.generator import make_rng
from .engine import Engine, Timeout
from .msg import (
    FINALIZE_SIZE,
    REQUEST_SIZE,
    WORK_MESSAGE_SIZE,
    ComputeTask,
    Execute,
    Mailbox,
    Receive,
    Send,
)
from .platform import Platform, fast_network_platform
from .trace import SimulationTrace


class MasterWorkerSimulation:
    """One master, ``p`` workers, a platform, a workload, a DLS technique.

    The platform must contain a host named ``master`` and hosts named
    ``worker-0`` .. ``worker-{p-1}``; the factories in
    :mod:`repro.simgrid.platform` produce exactly that layout.  When no
    platform is given, the free-network platform of the BOLD reproduction
    is used.  ``overhead_model``, ``start_times`` and ``record_chunks``
    mean what they mean for
    :class:`~repro.directsim.simulator.DirectSimulator`; the BOLD
    reproduction uses the default POST_HOC model on a free network.
    Messages are the control-message sized constants of
    :mod:`repro.simgrid.msg`, because the application data is
    replicated.
    """

    def __init__(
        self,
        params: SchedulingParams,
        workload: Workload,
        platform: Platform | None = None,
        overhead_model: OverheadModel = OverheadModel.POST_HOC,
        start_times: Sequence[float] | None = None,
        record_chunks: bool = False,
        master_host: str = "master",
        worker_hosts: Sequence[str] | None = None,
    ):
        self.params = params
        self.workload = workload
        self.platform = platform or fast_network_platform(params.p)
        self.overhead_model = overhead_model
        self.record_chunks = record_chunks
        self.master_host = self.platform.host(master_host)
        if worker_hosts is None:
            worker_hosts = [f"worker-{i}" for i in range(params.p)]
        if len(worker_hosts) != params.p:
            raise ValueError(
                f"need {params.p} worker hosts, got {len(worker_hosts)}"
            )
        self.worker_hosts = [self.platform.host(name) for name in worker_hosts]
        if start_times is None:
            start_times = [0.0] * params.p
        if len(start_times) != params.p:
            raise ValueError(
                f"need {params.p} start times, got {len(start_times)}"
            )
        if any(t < 0 for t in start_times):
            raise ValueError("start times must be non-negative")
        self.start_times = list(map(float, start_times))

    # -- processes ----------------------------------------------------------
    def _worker_proc(
        self,
        w: int,
        engine: Engine,
        master_mb: Mailbox,
        my_mb: Mailbox,
        trace: SimulationTrace,
        scheduler_h: float,
        rng: np.random.Generator,
        log: list[ChunkExecution] | None,
        chunk_records: dict[int, object],
    ) -> Generator:
        host = self.worker_hosts[w]
        wtrace = trace.workers[w]
        model = self.overhead_model
        report: tuple[int, float] | None = None
        while True:
            wtrace.record_request(engine.now)
            t_request = engine.now
            yield Send(
                self.platform, host, master_mb, ("request", w, report),
                REQUEST_SIZE,
            )
            report = None
            msg = yield Receive(my_mb)
            wtrace.wait_time += engine.now - t_request
            kind = msg.payload[0]
            if kind == "finalize":
                wtrace.finalized_at = engine.now
                return
            _, start, size = msg.payload
            if model is OverheadModel.PER_WORKER and scheduler_h > 0:
                yield Timeout(scheduler_h)
            task_time = self.workload.chunk_time(start, size, rng)
            exec_start = engine.now
            yield Execute(ComputeTask(f"chunk@{start}", task_time), host)
            elapsed = engine.now - exec_start
            wtrace.record_chunk(size, elapsed, task_time)
            report = (size, elapsed)
            if log is not None:
                log.append(
                    ChunkExecution(chunk_records[start], exec_start, elapsed)
                )

    def _master_proc(
        self,
        engine: Engine,
        scheduler: Scheduler,
        master_mb: Mailbox,
        worker_mbs: list[Mailbox],
        trace: SimulationTrace,
        chunk_records: dict[int, object],
    ) -> Generator:
        p = self.params.p
        h = self.params.h
        model = self.overhead_model
        finalized = 0
        while finalized < p:
            msg = yield Receive(master_mb)
            trace.master_messages += 1
            _, w, report = msg.payload
            if report is not None:
                scheduler.record_finished(w, *report)
            if (
                model is OverheadModel.SERIALIZED_MASTER
                and h > 0
                and scheduler.state.remaining > 0
            ):
                busy_from = engine.now
                yield Timeout(h)
                trace.master_busy_time += engine.now - busy_from
            size = scheduler.next_chunk(w)
            if size == 0:
                yield Send(
                    self.platform, self.master_host, worker_mbs[w],
                    ("finalize",), FINALIZE_SIZE,
                )
                finalized += 1
            else:
                record = scheduler.last_chunk
                chunk_records[record.start] = record
                yield Send(
                    self.platform, self.master_host, worker_mbs[w],
                    ("work", record.start, record.size), WORK_MESSAGE_SIZE,
                )

    # -- driving ------------------------------------------------------------
    def run(
        self,
        scheduler: Scheduler | Callable[[SchedulingParams], Scheduler],
        seed: int | np.random.SeedSequence | None = None,
    ) -> RunResult:
        """Simulate one run end to end; return its :class:`RunResult`."""
        t_wall = time.perf_counter()
        if not isinstance(scheduler, Scheduler):
            scheduler = scheduler(self.params)
        if scheduler.state.scheduled_chunks:
            raise ValueError("scheduler has already been used; pass a fresh one")
        rng = make_rng(seed)
        p = self.params.p
        engine = Engine()
        trace = SimulationTrace.for_workers(p)
        master_mb = Mailbox("master", self.master_host)
        worker_mbs = [
            Mailbox(f"worker-{w}", self.worker_hosts[w]) for w in range(p)
        ]
        log: list[ChunkExecution] | None = (
            [] if self.record_chunks else None
        )
        chunk_records: dict[int, object] = {}

        engine.spawn(
            self._master_proc(
                engine, scheduler, master_mb, worker_mbs, trace,
                chunk_records,
            ),
            name="master",
        )
        for w in range(p):
            engine.spawn(
                self._worker_proc(
                    w, engine, master_mb, worker_mbs[w], trace,
                    self.params.h, rng, log, chunk_records,
                ),
                name=f"worker-{w}",
                start_at=self.start_times[w],
            )
        makespan = engine.run()

        return RunResult(
            technique=scheduler.label or scheduler.name,
            n=self.params.n,
            p=p,
            h=self.params.h,
            overhead_model=self.overhead_model,
            makespan=makespan,
            compute_times=trace.compute_times,
            chunks_per_worker=trace.chunks_per_worker,
            num_chunks=scheduler.num_scheduling_operations,
            total_task_time=sum(w.task_time for w in trace.workers),
            chunk_log=log or [],
            extras={
                "master_messages": trace.master_messages,
                "master_busy_time": trace.master_busy_time,
                "wait_times": [w.wait_time for w in trace.workers],
                "total_requests": sum(w.requests for w in trace.workers),
            },
            stats=RunStats(
                fast_path=False,
                events=engine.events_processed,
                wall_time=time.perf_counter() - t_wall,
            ),
        )

