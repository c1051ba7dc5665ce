"""Compiled master-worker protocol: the MSG fast path.

:class:`MasterWorkerSimulation` drives the Figure 1 protocol through the
full DES stack — generator processes, mailboxes, send/receive effects,
and one RNG draw per chunk.  For the campaign configurations that
dominate the reproduction (non-adaptive techniques), every run of that
protocol is determined by a handful of scalars, so the whole simulation
can be *flattened* into a single loop over master scheduling
operations:

1. the chunk-size sequence is precomputed once via
   :meth:`~repro.core.base.Scheduler.chunk_schedule`;
2. chunk execution times are drawn in tiles of the schedule
   (:meth:`~repro.core.schedule.PrecomputedSchedule.replication_times`),
   which consume the RNG stream *identically* to the per-chunk draws of
   the event-driven path (chunks are drawn in assignment order in both)
   while holding one tile at a time, and the chunk log reads the
   schedule's runs a tile at a time too, so a run's memory does not grow
   with its number of chunks;
3. the master's serialised request servicing is replayed directly: the
   master always serves pending work requests in global delivery order,
   so a small heap of at most ``p`` pending requests replaces the event
   heap, the mailboxes and the generator machinery.

The replay is **bit-identical** to the event-driven simulator — same
floating-point operations in the same order — for makespan, per-worker
compute times, chunk counts, wait times, master counters and the chunk
log; ``tests/test_fastpath_msg.py`` asserts this equality across all
closed-form techniques, overhead models and platform shapes.

Why the flattening is exact
---------------------------

The master is the only shared resource, and its sends are strictly
serialised (every transfer takes ``> 0`` seconds), so work receipts —
and therefore chunk-time draws — are strictly ordered in time in chunk
assignment order.  The master serves requests in mailbox-FIFO order,
which equals the global order of request *deliveries*; a delivery's
position is ``(arrival time, engine sequence number)``, and the engine
sequence number of a request-completion event is fixed by when the
request send was initiated: first by initiation time, then spawn-order
for initial requests (scheduled before the run starts), then finished-
chunk order for follow-up requests (execute completions are scheduled
at strictly increasing receipt times).  The pending-request heap keys on
exactly that tuple, so ties in arrival time break as the event heap
would break them.

Techniques the flattening cannot express — adaptive ones, whose chunk
sizes depend on run-time feedback, and worker-dependent ones
(:func:`~repro.core.schedule.schedule_ineligibility`) — raise
:class:`~repro.core.schedule.ScheduleUnavailableError` naming the
reason.  The one place that falls back is the backend registry:
``msg-fast`` declares ``msg`` as its fallback and records a
:class:`~repro.backends.FallbackEvent` for every task it hands over.
"""

from __future__ import annotations

import heapq
import time
from typing import Callable, Iterable

import numpy as np

from ..core.base import ChunkRecord, Scheduler
from ..core.params import SchedulingParams
from ..core.schedule import (
    ScheduleUnavailableError,
    precompute_schedule,
    schedule_ineligibility,
)
from ..metrics.wasted_time import OverheadModel
from ..obs.stats import RunStats
from ..results import ChunkExecution, RunResult
from ..workloads.generator import make_rng
from .masterworker import MasterWorkerSimulation
from .msg import FINALIZE_SIZE, REQUEST_SIZE, WORK_MESSAGE_SIZE


class FastMasterWorkerSimulation(MasterWorkerSimulation):
    """:class:`MasterWorkerSimulation` with a compiled fast path.

    :meth:`run` produces bit-identical :class:`RunResult` objects to the
    event-driven simulator for every closed-form technique (see
    :func:`~repro.core.schedule.schedule_ineligibility`); any other
    technique raises :class:`~repro.core.schedule.
    ScheduleUnavailableError` instead of running.  All constructor
    arguments, overhead models, heterogeneous platforms and staggered
    start times behave exactly as in the parent.
    """

    def _require_eligible(self, scheduler: Scheduler) -> None:
        reason = schedule_ineligibility(scheduler)
        if reason is not None:
            raise ScheduleUnavailableError(
                f"{scheduler.label or scheduler.name} cannot take the MSG "
                f"fast path ({reason}); use MasterWorkerSimulation"
            )

    def run(
        self,
        scheduler: Scheduler | Callable[[SchedulingParams], Scheduler],
        seed: int | np.random.SeedSequence | None = None,
    ) -> RunResult:
        if not isinstance(scheduler, Scheduler):
            scheduler = scheduler(self.params)
        self._require_eligible(scheduler)
        schedule = precompute_schedule(scheduler)
        # Closed-form chunk_schedule leaves the instance untouched; mark
        # it consumed so reuse is rejected exactly as on the event path.
        scheduler.state.scheduled_chunks = schedule.num_chunks
        return self._fast_run(schedule, make_rng(seed))

    def run_many(
        self,
        factory: Callable[[SchedulingParams], Scheduler],
        seeds: Iterable[int | np.random.SeedSequence | None],
    ) -> list[RunResult]:
        """Independent replications sharing one schedule precomputation.

        Each seed produces exactly the result :meth:`run` would produce
        for it: the chunk schedule is computed once and replayed per
        seed.
        """
        probe = factory(self.params)
        self._require_eligible(probe)
        schedule = precompute_schedule(probe)
        return [
            self._fast_run(schedule, make_rng(seed)) for seed in seeds
        ]

    # -- the compiled loop ------------------------------------------------
    def _fast_run(
        self, schedule, rng: np.random.Generator
    ) -> RunResult:
        t_wall = time.perf_counter()
        params = self.params
        p, h = params.p, params.h
        model = self.overhead_model
        serialized = model is OverheadModel.SERIALIZED_MASTER
        per_worker = model is OverheadModel.PER_WORKER

        label = schedule.label
        num_chunks = schedule.num_chunks
        # Drawn in assignment order, a tile at a time — consumes the
        # RNG exactly as the event path's per-chunk draws do.
        task_times = schedule.replication_times(self.workload, rng)

        platform = self.platform
        master = self.master_host.name
        worker_names = [host.name for host in self.worker_hosts]
        speeds = [host.speed for host in self.worker_hosts]
        d_req = [
            platform.transfer_time(name, master, REQUEST_SIZE)
            for name in worker_names
        ]
        d_work = [
            platform.transfer_time(master, name, WORK_MESSAGE_SIZE)
            for name in worker_names
        ]
        d_fin = [
            platform.transfer_time(master, name, FINALIZE_SIZE)
            for name in worker_names
        ]

        # Pending work requests, keyed as the event heap would order their
        # deliveries: (arrival, initiation time, initiator tier, rank).
        # Tier 0 = the initial request of worker ``rank`` (scheduled at
        # spawn, before any run-time event); tier 1 = the follow-up
        # request after finishing chunk ``rank``.
        start_times = self.start_times
        pending = [
            (start_times[w] + d_req[w], start_times[w], 0, w, w)
            for w in range(p)
        ]
        heapq.heapify(pending)

        requests = [1] * p              # the initial request is in flight
        t_request = list(start_times)   # when each worker last requested
        wait_times = [0.0] * p
        compute_times = [0.0] * p
        task_time_acc = [0.0] * p
        chunk_counts = [0] * p
        # The event path logs chunks as their Execute effects *complete*;
        # completions at equal times fire in schedule (= assignment)
        # order, so a stable sort on end time reproduces the log exactly.
        log_entries: list[tuple[float, ChunkExecution]] | None = (
            [] if self.record_chunks else None
        )
        chunks = schedule.chunks()      # (start, size) of chunk c, for the log
        master_messages = 0
        master_busy_time = 0.0
        master_free = 0.0
        c = 0
        finalized = 0

        while finalized < p:
            arrival, _, _, _, w = heapq.heappop(pending)
            master_messages += 1
            t = master_free if master_free > arrival else arrival
            if serialized and h > 0 and c < num_chunks:
                after = t + h
                master_busy_time += after - t
                t = after
            if c < num_chunks:
                receipt = t + d_work[w]
                wait_times[w] += receipt - t_request[w]
                begin = receipt + h if (per_worker and h > 0) else receipt
                task_time = next(task_times)
                end = begin + task_time / speeds[w]
                elapsed = end - begin
                compute_times[w] += elapsed
                task_time_acc[w] += task_time
                chunk_counts[w] += 1
                if log_entries is not None:
                    start, size = next(chunks)
                    record = ChunkRecord(
                        index=c, worker=w, start=start, size=size,
                    )
                    log_entries.append(
                        (end, ChunkExecution(record, begin, elapsed))
                    )
                requests[w] += 1
                t_request[w] = end
                heapq.heappush(pending, (end + d_req[w], end, 1, c, w))
                c += 1
                master_free = receipt
            else:
                done_at = t + d_fin[w]
                wait_times[w] += done_at - t_request[w]
                finalized += 1
                master_free = done_at

        return RunResult(
            technique=label,
            n=params.n,
            p=p,
            h=h,
            overhead_model=model,
            makespan=master_free,
            compute_times=compute_times,
            chunks_per_worker=chunk_counts,
            num_chunks=num_chunks,
            total_task_time=sum(task_time_acc),
            chunk_log=(
                [entry for _, entry in
                 sorted(log_entries, key=lambda item: item[0])]
                if log_entries is not None else []
            ),
            extras={
                "master_messages": master_messages,
                "master_busy_time": master_busy_time,
                "wait_times": wait_times,
                "total_requests": sum(requests),
            },
            # The flattened loop has no event heap: ``events`` counts
            # master receipts served, the structural analogue.
            stats=RunStats(
                fast_path=True,
                events=master_messages,
                wall_time=time.perf_counter() - t_wall,
            ),
        )

