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
   :meth:`~repro.core.base.Scheduler.chunk_schedule` and reused across
   all replications.
2. **Bulk sampling** — the :class:`~repro.core.schedule.
   PrecomputedSchedule` draws each replication's chunk times from that
   replication's own generator with :meth:`~repro.workloads.
   distributions.Workload.chunk_times_batch`: a block's ``(R, C)``
   matrix a row at a time, or a single replication in 2,048-chunk
   segments, so SS at n = 524,288 never holds an n-sized matrix.
3. **Worker assignment** — one of two loops, chosen from the block's
   shape and scenario and returning the same results: a heap walk per
   replication (``DirectSimulator``'s ``(time, worker)`` heap on plain
   floats, with the scheduler replaced by the drawn chunk times), or,
   for wide blocks, an argmin loop over the whole ``(R, p)`` ready
   matrix at once.  Both pop the earliest-ready, lowest-index worker,
   repeat the scalar loop's float operations in its order and sum
   ``total_task_time`` in chunk order.

Techniques whose chunk sequence *cannot* be precomputed — the adaptive
feedback loops (AWF family, AF, BOLD) and the worker-dependent
schedules (WF, PLS, RND) — run on the **batched stepping kernel**
instead: all R replications advance in lock-step, one scheduling round
at a time, with each technique's adaptive state held as ``(R,)``/``(R,
p)`` arrays (:mod:`repro.core.stepping`).  One round performs one
argmin worker pop, one deferred completion report, one vectorized
chunk-size update, and one scalar ``chunk_time`` draw per live
replication.

Replication ``i`` of :meth:`BatchDirectSimulator.run_batch` draws only
from the generator of ``seeds[i]``, in ``DirectSimulator``'s per-chunk
order, so it *equals* ``DirectSimulator.run`` under that seed, field
for field, on every workload (the scalar simulator remains the
reference oracle; see ``tests/test_differential.py``).

Perturbation scenarios run on this kernel too: per-chunk speed-fluctuation
multipliers (triangle waves, step slowdowns, lognormal load noise —
the models a :class:`repro.scenarios.Scenario` compiles to) apply on
both paths, and fail-stop fault injection with work loss runs on the
stepping path (dead PEs are masked out of the argmin pop; lost chunk
regions requeue through the same LIFO stack semantics as the scalar
scheduler).  Fail-stop on a *closed-form* technique is the one
unsupported combination (dynamic requeueing invalidates a precomputed
schedule) — callers fall back to the scalar simulator there.
Per-chunk execution logs are recorded only on request
(``record_chunks=True``) and only on the stepping path; the closed-form
path refuses the request, as it refuses fail-stop.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import time
from typing import Callable, Iterable, Sequence

import numpy as np

from ..core.base import ChunkRecord, Scheduler
from ..core.params import SchedulingParams
from ..core.schedule import (
    PrecomputedSchedule,
    ScheduleUnavailableError,
    closed_form_supported,
    precompute_schedule,
)
from ..core.stepping import stepping_state_for, stepping_supported
from ..obs.stats import RunStats
from ..results import ChunkExecution, RunResult
from ..workloads.distributions import Workload
from ..workloads.generator import make_rng
from .accounting import OverheadModel
from .faults import (
    AllWorkersFailedError,
    CompositeFluctuation,
    CyclicFluctuation,
    FailStop,
    Fluctuation,
    LognormalFluctuation,
    StepFluctuation,
)

#: cap on R * C elements of a block's chunk-time matrix (~128 MB of
#: float64), so huge cells stream through in smaller replication
#: blocks; a block of one replication is drawn in segments instead.
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


class _PerturbationArrays:
    """Fault/fluctuation models lowered to per-worker arrays.

    Built once per simulator from the scalar mechanism models in
    :mod:`repro.directsim.faults`; the kernels index the arrays with the
    popped worker vector each round.  Only the model types a
    :class:`repro.scenarios.Scenario` compiles to have an array form —
    an arbitrary :class:`~repro.directsim.faults.Fluctuation` callable
    is rejected at construction time with a pointer to the scalar
    simulator.

    The deterministic models (wave, step) use only exactly-rounded IEEE
    operations in the same order as their scalar counterparts, so the
    multipliers — and everything downstream — are bit-identical to
    :class:`~repro.directsim.simulator.DirectSimulator`.  Lognormal
    noise has no array form: under it (:attr:`has_noise`) the kernels
    call the scalar model per replication, with its own generator.
    """

    __slots__ = ("fail_times", "has_noise", "_components")

    def __init__(
        self,
        p: int,
        failures: FailStop | None,
        fluctuation: Fluctuation | None,
    ):
        self.fail_times: np.ndarray | None = None
        if failures is not None:
            if not isinstance(failures, FailStop):
                raise ValueError(
                    f"cannot vectorize failure model "
                    f"{type(failures).__name__}; use the scalar direct "
                    "simulator"
                )
            fail = np.full(p, np.inf)
            for worker, fail_time in failures.fail_times.items():
                if worker < p:  # like the scalar dict: extra PEs never pop
                    fail[worker] = float(fail_time)
            self.fail_times = fail
        # the scalar noise model returns 1.0 without a draw at sigma 0
        self.has_noise = False
        self._components: list[tuple] = []
        for component in self._flatten(fluctuation):
            if isinstance(component, LognormalFluctuation):
                self.has_noise |= component.sigma != 0
            else:
                self._components.append(self._lower(p, component))

    @staticmethod
    def _flatten(fluctuation: Fluctuation | None) -> tuple:
        if fluctuation is None:
            return ()
        if isinstance(fluctuation, CompositeFluctuation):
            return fluctuation.components
        return (fluctuation,)

    @staticmethod
    def _lower(p: int, component) -> tuple:
        if isinstance(component, CyclicFluctuation):
            phase = np.zeros(p)
            mask = np.zeros(p, dtype=bool)
            for worker, value in component.phases.items():
                if worker < p:
                    phase[worker] = float(value)
                    mask[worker] = True
            return ("wave", component.period, component.amplitude,
                    phase, mask)
        if isinstance(component, StepFluctuation):
            times = np.full(p, np.inf)
            factors = np.ones(p)
            for worker, (step_time, factor) in component.factors.items():
                if worker < p:
                    times[worker] = float(step_time)
                    factors[worker] = float(factor)
            return ("step", times, factors)
        raise ValueError(
            f"cannot vectorize fluctuation model "
            f"{type(component).__name__}; use the scalar direct simulator"
        )

    def speed_multipliers(
        self, w: np.ndarray, t: np.ndarray
    ) -> np.ndarray | None:
        """The per-pop speed factors for workers ``w`` popped at ``t``.

        Only for a model without noise.  Factors multiply in component
        order — the scalar :class:`~repro.directsim.faults.
        CompositeFluctuation` contract — and a leading implicit 1.0 is
        dropped (``1.0 * x == x`` bitwise).  Returns ``None`` when no
        fluctuation component is present.
        """
        mult: np.ndarray | None = None
        for component in self._components:
            if component[0] == "wave":
                _, period, amplitude, phase, mask = component
                x = t / period + phase[w]
                u = x - np.floor(x)
                m = np.where(
                    mask[w],
                    1.0 + amplitude * (4.0 * np.abs(u - 0.5) - 1.0),
                    1.0,
                )
            else:  # step
                _, times, factors = component
                m = np.where(t >= times[w], factors[w], 1.0)
            mult = m if mult is None else mult * m
        return mult


class BatchDirectSimulator:
    """Batch-replication counterpart of :class:`DirectSimulator`.

    Takes the same cell description (params, workload, overhead model,
    speeds, start times, failures, fluctuation) but simulates one
    replication per seed in each :meth:`run_batch` call.  Fluctuation
    applies on both paths; fail-stop fault injection runs on the
    stepping path only (a precomputed closed-form schedule cannot
    absorb requeued work — use the scalar simulator there).
    ``record_chunks`` keeps per-chunk execution logs; only the stepping
    path records them, and a closed-form technique refuses the request.
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
        self.speeds = np.asarray(speeds, dtype=np.float64)
        if start_times is None:
            start_times = [0.0] * params.p
        if len(start_times) != params.p:
            raise ValueError(
                f"need {params.p} start times, got {len(start_times)}"
            )
        if any(t < 0 for t in start_times):
            raise ValueError("start times must be non-negative")
        self.start_times = np.asarray(start_times, dtype=np.float64)
        self.record_chunks = record_chunks
        self.failures = failures
        self.fluctuation = fluctuation
        # None for a clean system, so the kernels' per-round perturbation
        # branches reduce to one ``is None`` check (scenario=None is a
        # no-op on the hot path — BENCH_PR8.json guards this).
        self._perturb: _PerturbationArrays | None = None
        if failures is not None or fluctuation is not None:
            self._perturb = _PerturbationArrays(
                params.p, failures, fluctuation
            )

    def run_batch(
        self,
        scheduler: Scheduler | Callable[[SchedulingParams], Scheduler],
        seeds: Sequence[int | np.random.SeedSequence | None],
    ) -> list[RunResult]:
        """Simulate one replication of the cell per seed.

        ``scheduler`` may be a fresh instance or a factory, exactly as
        for :meth:`DirectSimulator.run`.  Closed-form techniques take
        the schedule-precomputation path; feedback-loop techniques with
        a registered stepping state take the lock-step round kernel
        (the instance then serves as the never-mutated prototype its
        batched state is built from).  Replication ``i`` draws only from
        the generator of ``seeds[i]``, in ``DirectSimulator``'s
        per-chunk order, so it equals ``DirectSimulator.run(scheduler,
        seeds[i])``.
        """
        rngs = [make_rng(seed) for seed in seeds]
        if not rngs:
            raise ValueError("need at least one seed")
        if not isinstance(scheduler, Scheduler):
            scheduler = scheduler(self.params)
        if closed_form_supported(scheduler):
            if self._perturb is not None and (
                self._perturb.fail_times is not None
            ):
                raise ScheduleUnavailableError(
                    f"{scheduler.label or scheduler.name} has only a "
                    "precomputed closed-form schedule, which fail-stop "
                    "requeueing would invalidate; use the scalar "
                    "simulator for fault scenarios on this technique"
                )
            if self.record_chunks:
                raise ScheduleUnavailableError(
                    f"{scheduler.label or scheduler.name} runs on the "
                    "closed-form path, which records no chunk log; use "
                    "the scalar simulator to collect one"
                )
            schedule = precompute_schedule(scheduler)
            block = max(1, MAX_BLOCK_ELEMENTS // max(1, schedule.num_chunks))
            run = functools.partial(self._run_block, schedule)
        elif stepping_supported(scheduler):
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

    # -- the closed-form kernel ------------------------------------------
    def _run_block(
        self,
        schedule: PrecomputedSchedule,
        rngs: list[np.random.Generator],
    ) -> list[RunResult]:
        """Simulate one replication of a precomputed schedule per RNG.

        The loop is chosen from the block's shape and scenario, never
        from a setting, and both loops return the same results for the
        same chunk times: the lock-step loop when the block is wide
        enough for it to win (:func:`_lockstep_wins`), the heap walk
        otherwise, and always under load noise.
        """
        t_wall = time.perf_counter()
        reps = len(rngs)
        perturb = self._perturb
        if perturb is not None and perturb.has_noise:
            # Lazy one-chunk draws, so each chunk's noise factor follows
            # its time in the replication's stream, as in DirectSimulator
            sizes = schedule.sizes.tolist()
            rows = [
                self._walk(map(
                    self.workload.chunk_time,
                    itertools.accumulate(sizes, initial=0), sizes,
                    itertools.repeat(rng),
                ), rng)
                for rng in rngs
            ]
        elif _lockstep_wins(reps, self.params.p):
            rows = self._run_lockstep(
                schedule.block_times(self.workload, rngs)
            )
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
                    heap_peak=p,
                    live_peak=p,
                    wall_time=wall_share,
                    extra={"block_reps": reps},
                ),
            )
            for makespan, compute, counts, total in rows
        ]

    def _walk(
        self, task_times: Iterable[float], rng: np.random.Generator
    ) -> tuple[float, list[float], list[int], float]:
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
        speeds = self.speeds.tolist()
        ready = [(t, w) for w, t in enumerate(self.start_times.tolist())]
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
        return makespan, compute, counts, total

    def _run_lockstep(
        self, task_times: np.ndarray
    ) -> list[tuple[float, list[float], list[int], float]]:
        """All rows of ``task_times`` in lock-step, one chunk at a time.

        The argmin over the ``(reps, p)`` ready matrix pops the same
        worker as the scalar heap — ties break toward the lowest worker
        index, as argmin does — and the float operations are
        :meth:`_walk`'s, so both loops agree bit for bit.
        """
        reps, num_chunks = task_times.shape
        p = self.params.p
        h = self.params.h
        model = self.overhead_model
        ready = np.tile(self.start_times, (reps, 1))
        compute = np.zeros((reps, p))
        counts = np.zeros((reps, p), dtype=np.int64)
        makespan = np.zeros(reps)
        total = np.zeros(reps)
        rows = np.arange(reps)
        if model is OverheadModel.SERIALIZED_MASTER:
            master_free = np.zeros(reps)

        perturb = self._perturb
        for c in range(num_chunks):
            w = np.argmin(ready, axis=1)
            t = ready[rows, w]
            task_time = task_times[:, c]
            # True division (not multiplication by a reciprocal) so the
            # ready times match the scalar simulator bit-for-bit; the
            # scalar loop multiplies the fluctuation factor into the
            # speed before dividing, so the perturbed branch does too.
            if perturb is None:
                elapsed = task_time / self.speeds[w]
            else:
                mult = perturb.speed_multipliers(w, t)
                speed = self.speeds[w] if mult is None else (
                    self.speeds[w] * mult
                )
                elapsed = task_time / speed
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

        return list(zip(
            makespan.tolist(), compute.tolist(), counts.tolist(),
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
        time (and load-noise factor) from its own generator, as the
        scalar loop does, and advance the clocks.  Replications whose
        tasks are exhausted drop out of the round set, exactly as the
        scalar loop stops popping once the scheduler is done (its final
        pending completions are never consulted again, so they are not
        reported).

        Under a fail-stop model the round additionally mirrors the
        scalar fault semantics: a popped worker that is already dead
        reports its pending completion (the chunk finished before the
        failure) and is masked out of future pops; a worker that dies
        mid-chunk loses the chunk — its task region is pushed onto a
        per-replication LIFO requeue stack that overrides the next
        chunk-size assignments, exactly like the scalar scheduler's
        ``requeue_chunk``/``next_chunk`` pair.  A replication whose
        live workers are all dead while tasks remain raises
        :class:`~repro.directsim.faults.AllWorkersFailedError`, like
        the scalar loop's empty-heap exit.
        """
        t_wall = time.perf_counter()
        reps = len(rngs)
        p = self.params.p
        h = self.params.h
        model = self.overhead_model
        label = prototype.label or prototype.name
        state = stepping_state_for(prototype, reps)

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
        perturb = self._perturb
        fail_times = perturb.fail_times if perturb is not None else None
        lost_chunks = np.zeros(reps, dtype=np.int64)
        lost_tasks = np.zeros(reps, dtype=np.int64)
        if fail_times is not None:
            # Scalar Scheduler._requeued: one LIFO (start, region) stack
            # per replication, consulted before advancing next_task.
            requeued: list[list[tuple[int, int]]] = [[] for _ in range(reps)]
            has_requeue = np.zeros(reps, dtype=bool)

        while True:
            rows = np.flatnonzero(remaining > 0)
            if rows.size == 0:
                break
            w = np.argmin(ready[rows], axis=1)
            t = ready[rows, w]
            if fail_times is not None and not np.all(np.isfinite(t)):
                # The argmin found only dead (inf-ready) workers for
                # some replication: the scalar loop's empty-heap exit.
                rep = int(rows[np.flatnonzero(~np.isfinite(t))[0]])
                raise AllWorkersFailedError(
                    f"{int(remaining[rep])} tasks remain but no live "
                    f"worker can execute them (replication {rep})"
                )

            # Deferred completion reporting happens before the dead-PE
            # check, like the scalar loop: a chunk that finished before
            # its worker's failure still feeds the adaptive state.
            fin_size = pend_size[rows, w]
            fin = fin_size > 0
            if fin.any():
                fr, fw = rows[fin], w[fin]
                outstanding[fr] -= fin_size[fin]
                state.record_finished(
                    fr, fw, fin_size[fin], pend_elapsed[fr, fw]
                )
                pend_size[fr, fw] = 0

            if fail_times is not None:
                pre_dead = t >= fail_times[w]
                if pre_dead.any():
                    # Dead PEs never request work again: mask them out
                    # of every future argmin pop.
                    ready[rows[pre_dead], w[pre_dead]] = np.inf
                    keep = ~pre_dead
                    rows, w, t = rows[keep], w[keep], t[keep]
                    if rows.size == 0:
                        continue

            sizes = state.chunk_sizes(
                rows, w, remaining[rows], outstanding[rows]
            )
            # The scalar next_chunk clip: never beyond the remaining
            # tasks, and always progress while work remains.
            sizes = np.maximum(
                np.minimum(sizes.astype(np.int64), remaining[rows]), 1
            )
            if fail_times is None or not has_requeue[rows].any():
                starts = next_task[rows]
                next_task[rows] += sizes
            else:
                # Scalar next_chunk: when the requeue stack is
                # non-empty, the clipped size is served from the
                # stack's top region (split or consumed whole) and
                # next_task does not advance.
                starts = next_task[rows].copy()
                advance = sizes.copy()
                for k in np.flatnonzero(has_requeue[rows]):
                    stack = requeued[rows[k]]
                    rstart, region = stack.pop()
                    size_k = int(sizes[k])
                    if size_k < region:
                        stack.append((rstart + size_k, region - size_k))
                    else:
                        sizes[k] = region
                    starts[k] = rstart
                    advance[k] = 0
                    has_requeue[rows[k]] = bool(stack)
                next_task[rows] += advance
            remaining[rows] -= sizes
            outstanding[rows] += sizes
            num_chunks[rows] += 1
            state.after_assignment(rows, w, sizes)

            # Each live replication draws its chunk time, then (under
            # load noise) its speed factor, from its own generator.
            row_rngs = [rngs[r] for r in rows.tolist()]
            task_time = np.array([
                chunk_time(start, size, rng) for start, size, rng
                in zip(starts.tolist(), sizes.tolist(), row_rngs)
            ])
            if perturb is None:
                mult = None
            elif perturb.has_noise:
                mult = np.array([
                    self.fluctuation.multiplier(worker, now, rng)
                    for worker, now, rng
                    in zip(w.tolist(), t.tolist(), row_rngs)
                ])
            else:
                mult = perturb.speed_multipliers(w, t)
            # The scalar loop multiplies the fluctuation factor into the
            # speed before the (bit-exact) true division.
            speed = self.speeds[w] if mult is None else self.speeds[w] * mult
            elapsed = task_time / speed
            if model is OverheadModel.PER_WORKER:
                begin = t + h
            elif model is OverheadModel.SERIALIZED_MASTER:
                # The scalar loop advances master_free before the
                # mid-chunk failure check, so a lost chunk still
                # occupies the master.
                mf = np.maximum(master_free[rows], t) + h
                master_free[rows] = mf
                begin = mf
            else:  # POST_HOC — scheduling is free inside the simulation
                begin = t
            end = begin + elapsed

            if fail_times is not None:
                died = fail_times[w] < end
                if died.any():
                    # The PE dies mid-chunk: work is lost and the task
                    # region requeued; the PE never pops again.
                    dr, dw = rows[died], w[died]
                    dsizes = sizes[died]
                    remaining[dr] += dsizes
                    outstanding[dr] -= dsizes
                    lost_chunks[dr] += 1
                    lost_tasks[dr] += dsizes
                    ready[dr, dw] = np.inf
                    dstarts = starts[died]
                    for k in range(dr.size):
                        requeued[dr[k]].append(
                            (int(dstarts[k]), int(dsizes[k]))
                        )
                        has_requeue[dr[k]] = True
                    keep = ~died
                    rows, w, sizes, starts = (
                        rows[keep], w[keep], sizes[keep], starts[keep]
                    )
                    task_time, elapsed = task_time[keep], elapsed[keep]
                    begin, end = begin[keep], end[keep]
                    if rows.size == 0:
                        continue

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
                compute_times=compute[r].tolist(),
                chunks_per_worker=counts[r].tolist(),
                num_chunks=int(num_chunks[r]),
                total_task_time=float(total[r]),
                chunk_log=logs[r] if logs is not None else [],
                extras={
                    "lost_chunks": int(lost_chunks[r]),
                    "lost_tasks": int(lost_tasks[r]),
                },
                stats=RunStats(
                    fast_path=True,
                    events=int(num_chunks[r]),
                    heap_peak=p,
                    live_peak=p,
                    wall_time=wall_share,
                    extra={"block_reps": reps},
                ),
            )
            for r in range(reps)
        ]
