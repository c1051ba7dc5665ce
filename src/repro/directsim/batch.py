"""Batch-replication kernel for the direct simulator.

The BOLD reproduction needs up to 1,000 replications per (technique, n,
p) cell; :class:`~repro.directsim.simulator.DirectSimulator` executes
each replication through a pure-Python heap loop with one RNG draw and
one scheduler call per chunk — half a million Python iterations per SS
replication at n = 524,288.  This module simulates the R replications
of one cell without the per-chunk scheduler calls, in three layers:

1. **Chunk-schedule precomputation** — for techniques whose chunk
   sequence is a pure function of ``(n, p, params)``
   (:attr:`~repro.core.base.Scheduler.deterministic_schedule`), the
   size sequence is computed once per cell via
   :meth:`~repro.core.base.Scheduler.chunk_schedule`, as runs of equal
   chunk sizes (SS at any n is one run), and reused across all
   replications.
2. **Bulk sampling** — the :class:`~repro.core.schedule.
   PrecomputedSchedule` expands its runs a tile of at most 2,048
   chunks at a time and draws each replication's chunk times for the
   tile from that replication's own generator with
   :meth:`~repro.workloads.distributions.Workload.chunk_times_batch`:
   an ``(R, tile)`` matrix for a block, or one row for one
   replication.  So the kernel holds one tile, whatever the number of
   chunks: SS at n = 524,288 holds no n-sized array.
3. **Worker assignment** — one of two loops, chosen from the block's
   shape and scenario and returning the same results: a heap walk per
   replication (``DirectSimulator``'s ``(time, worker)`` heap on plain
   floats, with the scheduler replaced by the drawn chunk times), or,
   for wide blocks, an argmin loop over the whole ``(R, p)`` ready
   matrix at once, stepping through the tiles.  Both pop the
   earliest-ready, lowest-index worker, repeat the scalar loop's float
   operations in its order and sum ``total_task_time`` in chunk order.

Techniques whose chunk sequence *cannot* be precomputed — the adaptive
feedback loops (AWF family, AF, BOLD) and the worker-dependent
schedules (WF, PLS, RND) — run on the **batched stepping kernel**
instead: all R replications advance in lock-step, one scheduling round
at a time, with each technique's adaptive state held as ``(R,)``/``(R,
p)`` arrays (the technique's ``stepping_state``, a
:class:`~repro.core.stepping.SteppingState`).  One round performs one
argmin worker pop, one deferred completion report, one vectorized
chunk-size update, and one scalar ``chunk_time`` draw per live
replication.  A block too narrow for the round's fixed NumPy cost to
pay off runs the inherited :meth:`DirectSimulator.run` once per
replication instead (:func:`_scalar_wins`).

Replication ``i`` of :meth:`BatchDirectSimulator.run_batch` draws only
from the generator of ``seeds[i]``, in ``DirectSimulator``'s per-chunk
order, so it *equals* ``DirectSimulator.run`` under that seed, field
for field, on every workload (the scalar simulator remains the
reference oracle; see ``tests/test_differential.py``).

Under a scenario the kernel serves only what it replays: a closed-form
technique under speed fluctuations (triangle waves, step slowdowns,
lognormal load noise — the models a :class:`repro.scenarios.Scenario`
compiles to), on the heap walk, which applies the scalar model per
chunk.  The lock-step loop and the stepping kernel run clean blocks
only, so :meth:`BatchDirectSimulator.run_batch` refuses a feedback
technique under a fluctuation model and any technique under a
fail-stop model: both run on the scalar simulator, where the
``direct-batch`` backend sends them through the registry.  Per-chunk
execution logs are recorded only on request (``record_chunks=True``)
and only for feedback techniques; the closed-form path refuses the
request.
"""

from __future__ import annotations

import copy
import functools
import heapq
import time
from array import array
from typing import Callable, Iterable, Sequence

import numpy as np

from ..core.base import ChunkRecord, Scheduler
from ..core.params import SchedulingParams
from ..core.schedule import (
    SEGMENT_CHUNKS,
    PrecomputedSchedule,
    ScheduleUnavailableError,
    closed_form_supported,
    precompute_schedule,
)
from ..metrics.wasted_time import OverheadModel
from ..obs.stats import RunStats
from ..results import ChunkExecution, RunResult
from ..workloads.generator import make_rng
from .faults import (
    CompositeFluctuation,
    CyclicFluctuation,
    Fluctuation,
    StepFluctuation,
)
from .simulator import DirectSimulator

#: cap on the elements a replication block holds at once (~128 MB of
#: float64), so huge blocks stream through in smaller ones: a
#: closed-form block holds one ``(R, SEGMENT_CHUNKS)`` tile of chunk
#: times whatever its number of chunks, a stepping block ``(R, p)``
#: state arrays.
MAX_BLOCK_ELEMENTS = 1 << 24

#: the stepping path holds ~this many (R, p) state arrays alive at once
#: (kernel counters plus the technique state), so its replication blocks
#: are sized to keep the total near ``MAX_BLOCK_ELEMENTS`` elements.
_STEPPING_STATE_ARRAYS = 8


#: the closed-form loop crossover.  The lock-step loop pays a fixed
#: NumPy cost per chunk for the whole block, the heap walk a cost per
#: chunk and replication that grows with log p, so up to p = 1,024 the
#: lock-step loop wins from ``LOCKSTEP_REPS - LOCKSTEP_REPS_PER_LEVEL *
#: p.bit_length()`` replications on; beyond that its argmin over the
#: ``(reps, p)`` matrix dominates and the heap walk wins or ties.
#: Measured with SS on exponential times (2-vCPU x86 host, NumPy 2.4),
#: the crossover fell at 64 replications for p = 2, 46 for p = 8, 32
#: for p = 64 and 19 for p = 1,024; at p = 4,096 the heap walk was as
#: fast or faster up to 64 replications.
LOCKSTEP_REPS = 64
LOCKSTEP_REPS_PER_LEVEL = 4
LOCKSTEP_MAX_P = 1024


def _lockstep_wins(reps: int, p: int) -> bool:
    """Whether the lock-step loop beats the heap walk on a block."""
    return p <= LOCKSTEP_MAX_P and (
        reps >= LOCKSTEP_REPS - LOCKSTEP_REPS_PER_LEVEL * p.bit_length()
    )


#: the feedback-loop crossover.  The stepping kernel pays a fixed NumPy
#: cost per round for the whole block, ``DirectSimulator``'s loop a cost
#: per chunk and replication that grows with p for the AWF family, so
#: the scalar loop wins on narrow blocks: up to ``SCALAR_MAX_REPS``
#: replications and ``SCALAR_MAX_REPS_P`` replications times p.
#: Measured as scalar time over stepping time (below 1 the scalar loop
#: is faster), the 10 feedback techniques summed, exponential times,
#: h = 0.5, best of 3, on a 2-vCPU x86 host with NumPy 2.4; ``*`` marks
#: the blocks the rule sends to the scalar loop:
#:
#: =========  ===  =====  =====  =====  =====  =====
#: n          p    1 rep  2      4      8      16
#: =========  ===  =====  =====  =====  =====  =====
#: 1,024      4    0.11*  0.19*  0.35*  0.62*  1.03
#: 1,024      16   0.12*  0.24*  0.44*  0.75*  1.31
#: 1,024      64   0.15*  0.29*  0.59*  1.07   1.82
#: 1,024      256  0.34*  0.71   1.33   2.28   3.60
#: 4,096      4                  0.35*  0.62*  1.06
#: 4,096      16                 0.43*  0.81*  1.37
#: 4,096      64                 0.67*  1.19   2.03
#: 4,096      256  0.30*  0.57   1.12
#: 16,384     4    0.10*  0.19*  0.36*  0.61*  1.10
#: 16,384     16   0.14*  0.27*  0.44*  0.81*  1.38
#: 16,384     64   0.21*  0.43*  0.84*  1.42   2.57
#: 16,384     256  0.37*  0.80   1.42   2.49   3.97
#: =========  ===  =====  =====  =====  =====  =====
#:
#: Between the columns the ratio crosses 1 at 12-16 replications for
#: p = 4 (12 read 0.85-0.88), 10-12 for p = 16, 5-6 for p = 64 (5
#: read 0.80-1.02); at p = 128, 2, 3 and 4 replications read 0.41-0.65,
#: 0.61-0.92 and 0.77-1.21, and at p = 1,024 one read 0.77-1.01.  So
#: the rule sends the scalar loop no block the stepping kernel wins;
#: above p = 64 it leaves a few that the scalar loop would win.
SCALAR_MAX_REPS = 8
SCALAR_MAX_REPS_P = 256


def _scalar_wins(reps: int, p: int) -> bool:
    """Whether ``DirectSimulator``'s loop beats the stepping kernel."""
    return reps <= SCALAR_MAX_REPS and reps * p <= SCALAR_MAX_REPS_P


def _packed(rows: np.ndarray) -> list[array]:
    """Each row of a float64 matrix as an ``array('d')`` of its bytes,
    so no result holds a list of boxed floats."""
    return [array("d", row.tobytes()) for row in rows]


def _draws_per_chunk(fluctuation: Fluctuation) -> bool:
    """Whether ``fluctuation`` may draw from a replication's generator.

    Waves and steps never draw, so a replication's chunk times can be
    drawn ahead a tile at a time.  Any other model (load noise) draws
    right after each chunk's time, as in ``DirectSimulator``, so its
    chunk times must be drawn one chunk at a time.
    """
    components = (
        fluctuation.components
        if isinstance(fluctuation, CompositeFluctuation) else (fluctuation,)
    )
    return not all(
        isinstance(component, (CyclicFluctuation, StepFluctuation))
        for component in components
    )


class BatchDirectSimulator(DirectSimulator):
    """A :class:`DirectSimulator` that also runs a cell's replications
    as one batch.

    The inherited :meth:`~DirectSimulator.run` is the oracle;
    :meth:`run_batch` simulates one replication per seed and equals it
    run for run.  A fluctuation model applies to closed-form techniques
    only; a feedback technique refuses it, and every technique refuses
    a fail-stop model.  ``record_chunks`` keeps per-chunk execution
    logs; only the feedback paths record them, and a closed-form
    technique refuses the request.
    """

    def run_batch(
        self,
        scheduler: Scheduler | Callable[[SchedulingParams], Scheduler],
        seeds: Sequence[int | np.random.SeedSequence | None],
    ) -> list[RunResult]:
        """Simulate one replication of the cell per seed.

        ``scheduler`` may be a fresh instance or a factory, exactly as
        for :meth:`DirectSimulator.run`.  Closed-form techniques take
        the schedule-precomputation path; feedback-loop techniques with
        a ``stepping_state`` take the lock-step round kernel (the
        instance then serves as the never-mutated prototype its batched
        state is built from), on a clean system only, or, on a block
        narrow enough for it to win (:func:`_scalar_wins`), the
        inherited :meth:`~DirectSimulator.run` with a fresh scheduler
        per replication (a copy of an instance).  Replication ``i``
        draws only from the generator of ``seeds[i]``, in
        ``DirectSimulator``'s per-chunk order, so it equals
        ``DirectSimulator.run(scheduler, seeds[i])``.  A fail-stop
        model is refused: only ``run`` replays it.
        """
        if self.failures is not None:
            raise ScheduleUnavailableError(
                "the batch kernels replay no fail-stop model; run each "
                "replication with DirectSimulator.run"
            )
        rngs = [make_rng(seed) for seed in seeds]
        if not rngs:
            raise ValueError("need at least one seed")
        requested = scheduler
        if not isinstance(scheduler, Scheduler):
            scheduler = scheduler(self.params)
        if closed_form_supported(scheduler):
            if self.record_chunks:
                raise ScheduleUnavailableError(
                    f"{scheduler.label or scheduler.name} runs on the "
                    "closed-form path, which records no chunk log; use "
                    "the scalar simulator to collect one"
                )
            schedule = precompute_schedule(scheduler)
            block = max(1, MAX_BLOCK_ELEMENTS // SEGMENT_CHUNKS)
            run = functools.partial(self._run_block, schedule)
        elif scheduler.stepping_state is not None:
            if self.fluctuation is not None:
                raise ScheduleUnavailableError(
                    f"{scheduler.label or scheduler.name} is a feedback "
                    "technique, which the stepping kernel runs on a clean "
                    "system only; use the scalar simulator under a "
                    "fluctuation model"
                )
            if _scalar_wins(len(rngs), self.params.p):
                return self._run_scalar(requested, rngs)
            block = max(
                1,
                MAX_BLOCK_ELEMENTS
                // (_STEPPING_STATE_ARRAYS * max(1, self.params.p)),
            )
            run = functools.partial(self._run_stepping_block, scheduler)
        else:
            raise ScheduleUnavailableError(
                f"{scheduler.label or scheduler.name} has neither a "
                "precomputable chunk schedule nor a batched stepping "
                "state; use a scalar simulator"
            )
        results: list[RunResult] = []
        for lo in range(0, len(rngs), block):
            results.extend(run(rngs[lo:lo + block]))
        return results

    # -- the scalar loop -------------------------------------------------
    def _run_scalar(
        self,
        scheduler: Scheduler | Callable[[SchedulingParams], Scheduler],
        rngs: list[np.random.Generator],
    ) -> list[RunResult]:
        """One inherited :meth:`~DirectSimulator.run` per RNG, as
        ``direct`` runs them.

        Each run takes a fresh scheduler: the factory's, or a copy of
        the never-mutated instance.
        """
        return [
            self.run(
                copy.deepcopy(scheduler)
                if isinstance(scheduler, Scheduler) else scheduler,
                rng,
            )
            for rng in rngs
        ]

    # -- the closed-form kernel ------------------------------------------
    def _run_block(
        self,
        schedule: PrecomputedSchedule,
        rngs: list[np.random.Generator],
    ) -> list[RunResult]:
        """Simulate one replication of a precomputed schedule per RNG.

        The loop is chosen from the block's shape and scenario, never
        from a setting, and both loops return the same results for the
        same chunk times: the lock-step loop when a clean block is wide
        enough for it to win (:func:`_lockstep_wins`), the heap walk
        otherwise, and always under a fluctuation model.
        """
        t_wall = time.perf_counter()
        reps = len(rngs)
        fluctuation = self.fluctuation
        if fluctuation is None and _lockstep_wins(reps, self.params.p):
            rows = self._run_lockstep(
                schedule.block_times(self.workload, rngs), reps
            )
        elif fluctuation is not None and _draws_per_chunk(fluctuation):
            # Lazy one-chunk draws, so each chunk's noise factor follows
            # its time in the replication's stream, as in DirectSimulator
            chunk_time = self.workload.chunk_time
            rows = [
                self._walk((
                    chunk_time(start, size, rng)
                    for start, size in schedule.chunks()
                ), rng)
                for rng in rngs
            ]
        else:
            rows = [
                self._walk(schedule.replication_times(self.workload, rng), rng)
                for rng in rngs
            ]
        num_chunks = schedule.num_chunks
        p, h, model = self.params.p, self.params.h, self.overhead_model
        # Each replication carries its share of the block's wall time;
        # ``events`` is the chunk-assignment count, as on the scalar path.
        wall_share = (time.perf_counter() - t_wall) / reps
        return [
            RunResult(
                technique=schedule.label,
                n=self.params.n,
                p=p,
                h=h,
                overhead_model=model,
                makespan=makespan,
                compute_times=compute,
                chunks_per_worker=counts,
                num_chunks=num_chunks,
                total_task_time=total,
                extras={"lost_chunks": 0, "lost_tasks": 0},
                stats=RunStats(
                    fast_path=True,
                    events=num_chunks,
                    wall_time=wall_share,
                ),
            )
            for makespan, compute, counts, total in rows
        ]

    def _walk(
        self, task_times: Iterable[float], rng: np.random.Generator
    ) -> tuple[float, array, list[int], float]:
        """One replication through :class:`DirectSimulator`'s heap loop.

        The scheduler is replaced by the schedule's chunk times; the
        ``(time, worker)`` heap, its lowest-index tie-break and the
        float operations are the scalar loop's, in its order, and
        ``total_task_time`` is summed in chunk order.  Returns
        ``(makespan, compute_times, chunks_per_worker, total)``.
        """
        p, h = self.params.p, self.params.h
        per_worker = self.overhead_model is OverheadModel.PER_WORKER
        serialized = self.overhead_model is OverheadModel.SERIALIZED_MASTER
        fluctuation = self.fluctuation
        speeds = self.speeds
        ready = [(t, w) for w, t in enumerate(self.start_times)]
        heapq.heapify(ready)
        replace = heapq.heapreplace
        compute = [0.0] * p
        counts = [0] * p
        total = 0.0
        master_free = 0.0
        for task_time in task_times:
            t, w = ready[0]
            speed = speeds[w]
            if fluctuation is not None:
                speed *= fluctuation.multiplier(w, t, rng)
            elapsed = task_time / speed
            if per_worker:
                begin = t + h
            elif serialized:
                master_free = max(master_free, t) + h
                begin = master_free
            else:  # POST_HOC — scheduling is free inside the simulation
                begin = t
            end = begin + elapsed
            replace(ready, (end, w))
            compute[w] += elapsed
            counts[w] += 1
            total += task_time
        # A worker's chunk ends only ever grow, so its heap entry is its
        # last end: the scalar max(finish) over the workers given work.
        makespan = max([0.0] + [t for t, w in ready if counts[w]])
        return makespan, array("d", compute), counts, total

    def _run_lockstep(
        self, tiles: Iterable[np.ndarray], reps: int
    ) -> list[tuple[float, array, list[int], float]]:
        """``reps`` replications in lock-step, one chunk at a time.

        ``tiles`` are ``(reps, C)`` chunk-time matrices in chunk order
        (:meth:`PrecomputedSchedule.block_times`), stepped through a
        column at a time.  The argmin over the ``(reps, p)`` ready matrix
        pops the same worker as the scalar heap — ties break toward the
        lowest worker index, as argmin does — and the float operations
        are :meth:`_walk`'s, so both loops agree bit for bit.
        """
        p = self.params.p
        h = self.params.h
        model = self.overhead_model
        speeds = np.asarray(self.speeds)
        ready = np.tile(self.start_times, (reps, 1))
        compute = np.zeros((reps, p))
        counts = np.zeros((reps, p), dtype=np.int64)
        makespan = np.zeros(reps)
        total = np.zeros(reps)
        rows = np.arange(reps)
        if model is OverheadModel.SERIALIZED_MASTER:
            master_free = np.zeros(reps)

        for tile in tiles:
            for task_time in tile.T:
                w = np.argmin(ready, axis=1)
                t = ready[rows, w]
                # True division (not multiplication by a reciprocal) so the
                # ready times match the scalar simulator bit-for-bit.
                elapsed = task_time / speeds[w]
                if model is OverheadModel.PER_WORKER:
                    begin = t + h
                elif model is OverheadModel.SERIALIZED_MASTER:
                    np.maximum(master_free, t, out=master_free)
                    master_free += h
                    begin = master_free
                else:  # POST_HOC — scheduling is free inside the simulation
                    begin = t
                end = begin + elapsed
                ready[rows, w] = end
                compute[rows, w] += elapsed
                counts[rows, w] += 1
                total += task_time
                np.maximum(makespan, end, out=makespan)
            # Drop the tile before the next one is drawn, so a block
            # holds one tile at a time.
            del tile, task_time

        return list(zip(
            makespan.tolist(), _packed(compute), counts.tolist(),
            total.tolist(),
        ))

    # -- the stepping kernel ---------------------------------------------
    def _run_stepping_block(
        self,
        prototype: Scheduler,
        rngs: list[np.random.Generator],
    ) -> list[RunResult]:
        """Advance one replication per RNG in lock-step, a round at a time.

        One round replays one scalar heap pop for every live
        replication, in the scalar loop's exact order: pop the
        earliest-ready worker (argmin; ties break toward the lowest
        index, like the heap), report that worker's pending chunk
        completion to the scheduler state (deferred reporting), compute
        and clip the chunk sizes, then draw each replication's chunk
        time from its own generator, as the scalar loop does, and
        advance the clocks.  Replications whose tasks are exhausted
        drop out of the round set, exactly as the scalar loop stops
        popping once the scheduler is done (its final pending
        completions are never consulted again, so they are not
        reported).
        """
        t_wall = time.perf_counter()
        reps = len(rngs)
        p = self.params.p
        h = self.params.h
        model = self.overhead_model
        label = prototype.label or prototype.name
        state = prototype.stepping_state(prototype, reps)
        speeds = np.asarray(self.speeds)

        remaining = np.full(reps, self.params.n, dtype=np.int64)
        outstanding = np.zeros(reps, dtype=np.int64)
        next_task = np.zeros(reps, dtype=np.int64)
        num_chunks = np.zeros(reps, dtype=np.int64)
        ready = np.tile(self.start_times, (reps, 1))
        compute = np.zeros((reps, p))
        counts = np.zeros((reps, p), dtype=np.int64)
        makespan = np.zeros(reps)
        total = np.zeros(reps)
        pend_size = np.zeros((reps, p), dtype=np.int64)
        pend_elapsed = np.zeros((reps, p))
        if model is OverheadModel.SERIALIZED_MASTER:
            master_free = np.zeros(reps)
        logs: list[list[ChunkExecution]] | None = (
            [[] for _ in range(reps)] if self.record_chunks else None
        )

        chunk_time = self.workload.chunk_time
        while True:
            rows = np.flatnonzero(remaining > 0)
            if rows.size == 0:
                break
            w = np.argmin(ready[rows], axis=1)
            t = ready[rows, w]

            fin_size = pend_size[rows, w]
            fin = fin_size > 0
            if fin.any():
                fr, fw = rows[fin], w[fin]
                outstanding[fr] -= fin_size[fin]
                state.record_finished(
                    fr, fw, fin_size[fin], pend_elapsed[fr, fw]
                )
                pend_size[fr, fw] = 0

            sizes = state.chunk_sizes(
                rows, w, remaining[rows], outstanding[rows]
            )
            # The scalar next_chunk clip: never beyond the remaining
            # tasks, and always progress while work remains.
            sizes = np.maximum(
                np.minimum(sizes.astype(np.int64), remaining[rows]), 1
            )
            starts = next_task[rows]
            next_task[rows] += sizes
            remaining[rows] -= sizes
            outstanding[rows] += sizes
            num_chunks[rows] += 1
            state.after_assignment(rows, w, sizes)

            # Each live replication draws its chunk time from its own
            # generator.
            task_time = np.array([
                chunk_time(start, size, rngs[r]) for start, size, r
                in zip(starts.tolist(), sizes.tolist(), rows.tolist())
            ])
            elapsed = task_time / speeds[w]
            if model is OverheadModel.PER_WORKER:
                begin = t + h
            elif model is OverheadModel.SERIALIZED_MASTER:
                mf = np.maximum(master_free[rows], t) + h
                master_free[rows] = mf
                begin = mf
            else:  # POST_HOC — scheduling is free inside the simulation
                begin = t
            end = begin + elapsed

            ready[rows, w] = end
            compute[rows, w] += elapsed
            counts[rows, w] += 1
            total[rows] += task_time
            # Per-worker end times only ever grow, so the running max
            # over all chunk ends equals the scalar max(finish).
            makespan[rows] = np.maximum(makespan[rows], end)
            pend_size[rows, w] = sizes
            pend_elapsed[rows, w] = elapsed
            if logs is not None:
                for k in range(rows.size):
                    rep = int(rows[k])
                    logs[rep].append(ChunkExecution(
                        ChunkRecord(
                            index=int(num_chunks[rep]) - 1,
                            worker=int(w[k]),
                            start=int(starts[k]),
                            size=int(sizes[k]),
                        ),
                        float(begin[k]),
                        float(elapsed[k]),
                    ))

        wall_share = (time.perf_counter() - t_wall) / reps
        return [
            RunResult(
                technique=label,
                n=self.params.n,
                p=p,
                h=h,
                overhead_model=model,
                makespan=float(makespan[r]),
                compute_times=times,
                chunks_per_worker=counts[r].tolist(),
                num_chunks=int(num_chunks[r]),
                total_task_time=float(total[r]),
                chunk_log=logs[r] if logs is not None else [],
                extras={"lost_chunks": 0, "lost_tasks": 0},
                stats=RunStats(
                    fast_path=True,
                    events=int(num_chunks[r]),
                    wall_time=wall_share,
                ),
            )
            for r, times in enumerate(_packed(compute))
        ]
