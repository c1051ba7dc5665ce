"""The direct simulator — a replica of Hagerup's (1997) chunk-level
simulator, which the paper reproduced after the fictitious-platform route
failed (Section III-B).

The model has no network: a run is a sequence of chunk executions at chunk
granularity.  Workers become ready, receive a chunk from the scheduler,
execute it for the summed task time of the chunk (divided by the worker's
relative speed), and return for more work.  Scheduling overhead is charged
according to an :class:`~repro.metrics.wasted_time.OverheadModel`.

The simulator is deliberately simple — a single binary heap over worker
ready times — so that it serves as the *independent second implementation*
against which the event-driven SimGrid-MSG-like simulator is verified
(tests/test_cross_validation.py).
"""

from __future__ import annotations

import heapq
import time
from typing import Callable, Sequence

import numpy as np

from ..core.base import Scheduler
from ..core.params import SchedulingParams
from ..metrics.wasted_time import OverheadModel
from ..obs.stats import RunStats
from ..results import ChunkExecution, RunResult
from ..workloads.distributions import Workload
from ..workloads.generator import make_rng
from .faults import AllWorkersFailedError, FailStop, Fluctuation


class DirectSimulator:
    """Chunk-granularity master-worker simulation without a network.

    Parameters
    ----------
    params:
        The scheduling parameters (``n``, ``p``, ``h`` are used here).
    workload:
        Distribution of task execution times.
    overhead_model:
        Where ``h`` is charged; default is the paper's POST_HOC model.
    speeds:
        Relative PE speeds (default homogeneous 1.0).  A chunk's wall time
        is its summed task time divided by the executing PE's speed.
    start_times:
        Per-PE ready times at simulation start (default all zero) —
        GSS's "uneven starting times" scenario.
    record_chunks:
        Keep a full per-chunk execution log on the result (memory-heavy
        for SS at large ``n``; off by default).
    failures:
        Optional :class:`~repro.directsim.faults.FailStop` model — the
        resilience scenario of the paper's companion study [3].
    fluctuation:
        Optional per-chunk speed :class:`~repro.directsim.faults.Fluctuation`
        — the fluctuating-load scenario of [2].
    """

    def __init__(
        self,
        params: SchedulingParams,
        workload: Workload,
        overhead_model: OverheadModel = OverheadModel.POST_HOC,
        speeds: Sequence[float] | None = None,
        start_times: Sequence[float] | None = None,
        record_chunks: bool = False,
        failures: FailStop | None = None,
        fluctuation: Fluctuation | None = None,
    ):
        self.params = params
        self.workload = workload
        self.overhead_model = overhead_model
        if speeds is None:
            speeds = [1.0] * params.p
        if len(speeds) != params.p:
            raise ValueError(f"need {params.p} speeds, got {len(speeds)}")
        if any(s <= 0 for s in speeds):
            raise ValueError("speeds must all be positive")
        self.speeds = list(map(float, speeds))
        if start_times is None:
            start_times = [0.0] * params.p
        if len(start_times) != params.p:
            raise ValueError(
                f"need {params.p} start times, got {len(start_times)}"
            )
        if any(t < 0 for t in start_times):
            raise ValueError("start times must be non-negative")
        self.start_times = list(map(float, start_times))
        self.record_chunks = record_chunks
        self.failures = failures
        self.fluctuation = fluctuation

    def run(
        self,
        scheduler: Scheduler | Callable[[SchedulingParams], Scheduler],
        seed: int | np.random.SeedSequence | None = None,
    ) -> RunResult:
        """Simulate one run; returns timing and accounting for it.

        ``scheduler`` may be an instance (used as-is; must be fresh) or a
        factory called with the simulator's params.
        """
        t_wall = time.perf_counter()
        if not isinstance(scheduler, Scheduler):
            scheduler = scheduler(self.params)
        if scheduler.state.scheduled_chunks:
            raise ValueError("scheduler has already been used; pass a fresh one")
        rng = make_rng(seed)
        p = self.params.p
        h = self.params.h
        model = self.overhead_model

        compute = [0.0] * p
        chunk_counts = [0] * p
        # Last activity end per worker; a worker that never receives work
        # does not extend the makespan (it only idles).
        finish = [0.0] * p
        total_task_time = 0.0
        log: list[ChunkExecution] = []
        master_free = 0.0

        ready = [(self.start_times[w], w) for w in range(p)]
        heapq.heapify(ready)
        # Chunk completions are reported when the worker next requests
        # work — i.e. when the chunk has physically finished — so that the
        # scheduler's m (remaining + in-flight) and the adaptive
        # techniques' timing feedback reflect simulated time.
        pending: list[tuple[int, float] | None] = [None] * p

        lost_chunks = 0
        lost_tasks = 0
        events = 0

        while ready and not scheduler.done:
            t, worker = heapq.heappop(ready)
            events += 1
            if pending[worker] is not None:
                done_size, done_elapsed = pending[worker]
                scheduler.record_finished(worker, done_size, done_elapsed)
                pending[worker] = None
            if self.failures is not None and self.failures.fails_before(
                worker, t
            ):
                continue  # dead PE: never requests again
            size = scheduler.next_chunk(worker)
            if size == 0:
                continue
            record = scheduler.last_chunk
            task_time = self.workload.chunk_time(record.start, size, rng)
            speed = self.speeds[worker]
            if self.fluctuation is not None:
                speed *= self.fluctuation.multiplier(worker, t, rng)
            elapsed = task_time / speed

            if model is OverheadModel.PER_WORKER:
                begin = t + h
            elif model is OverheadModel.SERIALIZED_MASTER:
                master_free = max(master_free, t) + h
                begin = master_free
            else:  # POST_HOC — scheduling is free inside the simulation
                begin = t
            end = begin + elapsed

            if self.failures is not None and self.failures.fails_during(
                worker, begin, end
            ):
                # The PE dies mid-chunk: the work is lost and requeued.
                scheduler.requeue_chunk(record)
                lost_chunks += 1
                lost_tasks += size
                continue

            compute[worker] += elapsed
            chunk_counts[worker] += 1
            total_task_time += task_time
            finish[worker] = end
            pending[worker] = (size, elapsed)
            if self.record_chunks:
                log.append(ChunkExecution(record, begin, elapsed))
            heapq.heappush(ready, (end, worker))

        if not scheduler.done:
            raise AllWorkersFailedError(
                f"{scheduler.state.remaining} tasks remain but no live "
                f"worker can execute them"
            )

        for worker, item in enumerate(pending):
            if item is not None:
                scheduler.record_finished(worker, *item)

        makespan = max(finish) if finish else 0.0
        return RunResult(
            technique=scheduler.label or scheduler.name,
            n=self.params.n,
            p=p,
            h=h,
            overhead_model=model,
            makespan=makespan,
            compute_times=compute,
            chunks_per_worker=chunk_counts,
            num_chunks=scheduler.num_scheduling_operations,
            total_task_time=total_task_time,
            chunk_log=log,
            extras={
                "lost_chunks": lost_chunks,
                "lost_tasks": lost_tasks,
            },
            # ``events`` counts worker ready-heap pops (one per chunk
            # assignment attempt).
            stats=RunStats(
                fast_path=False,
                events=events,
                wall_time=time.perf_counter() - t_wall,
            ),
        )
