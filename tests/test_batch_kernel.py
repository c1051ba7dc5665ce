"""Cross-validation of the vectorized batch kernel against the scalar
direct simulator (the reference oracle), plus the runner integration."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.base import chunk_sizes
from repro.core.params import SchedulingParams
from repro.core.registry import get_technique
from repro.core.schedule import (
    SEGMENT_CHUNKS,
    PrecomputedSchedule,
    ScheduleUnavailableError,
    closed_form_supported,
    precompute_schedule,
)
from repro.directsim import (
    BatchDirectSimulator,
    DirectSimulator,
    FailStop,
    OverheadModel,
)
from repro.directsim.batch import _lockstep_wins
from repro.experiments.bold_experiments import scheduling_params
from repro.experiments.runner import RunTask, run_replicated
from repro.simgrid.fastpath import FastMasterWorkerSimulation
from repro.workloads import ConstantWorkload, ExponentialWorkload
from repro.workloads.distributions import (
    BimodalWorkload,
    GammaWorkload,
    LinearWorkload,
    NormalWorkload,
    PerTaskSampling,
    TraceWorkload,
    UniformWorkload,
    decreasing_workload,
    increasing_workload,
)
from repro.workloads.generator import make_rng

#: every technique on the closed-form fast path
BATCHABLE = (
    "stat", "ss", "css", "fsc", "gss", "tss", "fac", "fac2", "tap",
    "tfss", "fiss", "viss",
)
#: techniques served by the batched stepping kernel (worker-dependent
#: or adaptive — no precomputable schedule, but a vectorized state)
STEPPABLE = ("wf", "pls", "rnd", "bold", "awf", "af")


def params(n=257, p=3, h=0.25):
    return SchedulingParams(n=n, p=p, h=h, mu=1.0, sigma=1.0)


class TestBatchSupported:
    @pytest.mark.parametrize("name", BATCHABLE)
    def test_fast_path_techniques(self, name):
        assert closed_form_supported(name)

    @pytest.mark.parametrize("name", STEPPABLE)
    def test_stepping_techniques(self, name):
        assert get_technique(name).stepping_state is not None

    def test_every_registered_technique_is_batchable(self):
        """Every registered technique has exactly one batch form: a
        closed-form schedule or a stepping state."""
        from repro.core.registry import technique_names

        for name in technique_names():
            stepping = get_technique(name).stepping_state is not None
            assert closed_form_supported(name) != stepping, name


def assert_maximal_runs(sizes, counts):
    """``(sizes, counts)`` are int64 runs: positive counts, and no two
    neighbouring runs of one size."""
    assert sizes.dtype == counts.dtype == np.int64
    assert sizes.shape == counts.shape
    assert (counts > 0).all()
    assert (sizes[1:] != sizes[:-1]).all()


class TestChunkSchedule:
    @pytest.mark.parametrize("name", BATCHABLE)
    @pytest.mark.parametrize("n,p", [(0, 4), (1, 4), (257, 3), (1024, 8)])
    def test_matches_scalar_drain(self, name, n, p):
        """chunk_schedule() must replay exactly what next_chunk produces."""
        make = get_technique(name)
        pr = SchedulingParams(n=n, p=p, h=0.25, mu=1.0, sigma=1.0)
        runs = make(pr).chunk_schedule()
        assert runs is not None
        assert_maximal_runs(*runs)
        assert np.repeat(*runs).tolist() == chunk_sizes(make(pr))
        assert int(np.repeat(*runs).sum()) == n

    @pytest.mark.parametrize("name,h", [
        ("ss", 0.25), ("fsc", 0.0), ("css", 0.25), ("stat", 0.25),
    ])
    @pytest.mark.parametrize("n,p", [(1, 4), (257, 3), (1024, 8), (4099, 8)])
    def test_constant_chunks_are_at_most_two_runs(self, name, h, n, p):
        """SS, FSC at h = 0 (k = 1), CSS and STAT hold no entry per
        chunk: their runs match the drain and number at most two."""
        make = get_technique(name)
        pr = SchedulingParams(n=n, p=p, h=h, mu=1.0, sigma=1.0)
        sizes, counts = make(pr).chunk_schedule()
        assert sizes.size == counts.size <= 2
        assert np.repeat(sizes, counts).tolist() == chunk_sizes(make(pr))

    def test_worker_dependent_returns_none(self):
        assert get_technique("wf")(params()).chunk_schedule() is None

    def test_used_scheduler_rejected(self):
        sched = get_technique("ss")(params())
        sched.next_chunk(0)
        with pytest.raises(ValueError):
            sched.chunk_schedule()


#: deterministic cells of the identity test: ``(n, p, workload)``.  The
#: non-integer task times make ``total_task_time`` depend on the order
#: of summation (FAC at n=1000, p=4 on the decreasing loop: 1150.0 in
#: chunk order, 1149.9999999999998 pairwise).
IDENTITY_CELLS = [(257, 3, ConstantWorkload(1.0))] + [
    (n, p, workload)
    for n, p in ((1000, 4), (5000, 8), (777, 3))
    for workload in (
        decreasing_workload(n, 2.0, 0.3),
        increasing_workload(n, 0.3, 2.0),
        ConstantWorkload(0.3),
    )
]


class TestKernelIdentity:
    """Per-replication equality with the scalar oracle on deterministic
    workloads: every result field, ``total_task_time`` included — bit
    for bit."""

    @pytest.mark.parametrize("name", BATCHABLE)
    @pytest.mark.parametrize("model", list(OverheadModel))
    def test_constant_workload(self, name, model):
        factory = get_technique(name)
        for n, p, workload in IDENTITY_CELLS:
            pr = params(n=n, p=p)
            scalar = DirectSimulator(pr, workload, overhead_model=model)
            batch = BatchDirectSimulator(pr, workload, overhead_model=model)
            want = scalar.run(factory, seed=0)
            for reps in (1, 3):
                got = batch.run_batch(factory, [0] * reps)
                assert got == [want] * reps, (n, p, workload, reps)

    def test_heterogeneous_speeds_and_start_times(self):
        pr = params(n=511, p=4)
        workload = ConstantWorkload(2.0)
        speeds = [1.0, 2.0, 0.5, 1.5]
        starts = [0.0, 3.0, 1.0, 0.0]
        factory = get_technique("fac2")
        scalar = DirectSimulator(pr, workload, speeds=speeds,
                                 start_times=starts)
        batch = BatchDirectSimulator(pr, workload, speeds=speeds,
                                     start_times=starts)
        want = scalar.run(factory, seed=0)
        got = batch.run_batch(factory, [0])[0]
        assert got.makespan == want.makespan
        assert got.compute_times == want.compute_times
        assert got.chunks_per_worker == want.chunks_per_worker

    def test_block_streaming_matches_single_block(self, monkeypatch):
        """Splitting reps over internal memory blocks must not change
        per-replication results (each replication has its own RNG).  A
        closed-form block holds one tile per replication, so a cap of
        one tile streams one replication per block."""
        pr = params(n=64, p=2)
        workload = ConstantWorkload(1.0)
        factory = get_technique("gss")
        one = BatchDirectSimulator(pr, workload).run_batch(factory, range(5))
        monkeypatch.setattr(
            "repro.directsim.batch.MAX_BLOCK_ELEMENTS", SEGMENT_CHUNKS
        )
        blocks = []
        run_block = BatchDirectSimulator._run_block
        monkeypatch.setattr(
            BatchDirectSimulator, "_run_block",
            lambda self, schedule, rngs: blocks.append(len(rngs))
            or run_block(self, schedule, rngs),
        )
        tiny = BatchDirectSimulator(pr, workload).run_batch(factory, range(5))
        assert blocks == [1] * 5
        assert [r.makespan for r in one] == [r.makespan for r in tiny]


class TestKernelDistribution:
    """Stochastic workloads: every replication is the scalar run under
    its seed, whichever loop the block takes."""

    @pytest.mark.parametrize("name", ("ss", "fac", "gss"))
    def test_exponential_means_agree(self, name):
        pr = SchedulingParams(n=1024, p=8, h=0.5, mu=1.0, sigma=1.0)
        workload = ExponentialWorkload(1.0)
        factory = get_technique(name)
        seeds = np.random.SeedSequence(42).spawn(200)
        got = BatchDirectSimulator(pr, workload).run_batch(factory, seeds)
        scalar = DirectSimulator(pr, workload)
        assert got == [scalar.run(factory, seed) for seed in seeds]

    def test_unsupported_technique_raises(self):
        """A technique with neither a closed-form schedule nor a
        ``stepping_state`` is rejected with a clear error (wf et al.
        used to be the example; they are steppable now)."""
        from repro.core.base import Scheduler

        class _Opaque(Scheduler):
            name = "opaque-test-only"
            label = "OPAQUE"
            requires = frozenset({"p", "n"})
            deterministic_schedule = False

            def _chunk_size(self, worker: int) -> int:
                return 1

        batch = BatchDirectSimulator(params(), ConstantWorkload(1.0))
        with pytest.raises(ScheduleUnavailableError):
            batch.run_batch(_Opaque, [0, 1])

    @pytest.mark.parametrize("name", ("gss", "af"))
    def test_fail_stop_model_is_refused(self, name):
        """The fail-stop model a BatchDirectSimulator inherits is served
        by the inherited run only; run_batch names it."""
        sim = BatchDirectSimulator(params(), ConstantWorkload(1.0),
                                   failures=FailStop({0: 5.0}))
        with pytest.raises(ScheduleUnavailableError,
                           match="DirectSimulator"):
            sim.run_batch(get_technique(name), [0, 1])
        assert sim.run(get_technique(name), 0) == DirectSimulator(
            params(), ConstantWorkload(1.0), failures=FailStop({0: 5.0})
        ).run(get_technique(name), 0)

    def test_closed_form_refuses_chunk_logs(self):
        """The closed-form path records no chunk log, so it refuses the
        request instead of returning empty logs; a feedback technique
        keeps its logs."""
        pr = params(n=100, p=4)
        sim = BatchDirectSimulator(pr, ConstantWorkload(1.0),
                                   record_chunks=True)
        with pytest.raises(ScheduleUnavailableError, match="chunk log"):
            sim.run_batch(get_technique("gss"), [0, 1])
        for result in sim.run_batch(get_technique("af"), [0, 1]):
            assert len(result.chunk_log) == result.num_chunks > 0


#: one workload of every class, for the draw-path equivalences
EVERY_WORKLOAD = [
    ConstantWorkload(1.5),
    ExponentialWorkload(2.0),
    GammaWorkload(2.0, 0.5),
    UniformWorkload(0.1, 2.0),
    NormalWorkload(1.0, 0.5),
    BimodalWorkload(0.2, 3.0),
    PerTaskSampling(ExponentialWorkload(1.0)),
    LinearWorkload(600_000, 2.0, 0.3),
    TraceWorkload(np.linspace(0.1, 3.0, 600_000)),
]


class TestChunkTimesBatchDispatch:
    """Satellite: chunk_times_batch and chunk_time share one closed-form
    dispatch — a batch of one must equal the scalar call exactly."""

    @pytest.mark.parametrize(
        "workload", EVERY_WORKLOAD, ids=lambda w: type(w).__name__
    )
    @pytest.mark.parametrize("size", [1, 7, 128])
    def test_batch_of_one_equals_scalar(self, workload, size):
        starts = np.asarray([3], dtype=np.int64)
        sizes = np.asarray([size], dtype=np.int64)
        a = workload.chunk_times_batch(starts, sizes, make_rng(9))[0]
        b = workload.chunk_time(3, size, make_rng(9))
        assert a == b

    @pytest.mark.parametrize(
        "workload", EVERY_WORKLOAD, ids=lambda w: type(w).__name__
    )
    def test_scalar_chunk_time_draws_like_the_batch_path(self, workload):
        """chunk_time returns chunk_times_batch's value for the one
        chunk and leaves the RNG in the same state, for every size (0
        included)."""
        for size in [*range(300), 1000, 65536, 524288]:
            a, b = make_rng(size), make_rng(size)
            got = workload.chunk_time(3, size, a)
            want = workload.chunk_times_batch([3], [size], b)
            assert type(got) is float
            assert got == want[0], size
            assert a.bit_generator.state == b.bit_generator.state, size

    @pytest.mark.parametrize(
        "workload", EVERY_WORKLOAD, ids=lambda w: type(w).__name__
    )
    def test_consecutive_chunks_draw_like_chunk_by_chunk(self, workload):
        """Chunks of many sizes in one call: each sum and the final RNG
        state are those of chunk_time called chunk by chunk."""
        sizes = np.asarray([5, 1, 5, 300, 2, 1, 129, 5, 64, 2, 1000],
                           dtype=np.int64)
        starts = 11 + np.cumsum(sizes) - sizes
        a, b = make_rng(4), make_rng(4)
        got = workload.chunk_times_batch(starts, sizes, a)
        want = [workload.chunk_time(int(st), int(sz), b)
                for st, sz in zip(starts, sizes)]
        assert got.tolist() == want
        assert a.bit_generator.state == b.bit_generator.state

    def test_row_sums_equal_one_dimensional_sums(self):
        """The grouped draw sums a (count, size) matrix along its rows;
        NumPy must sum each row as it sums the 1-D chunk."""
        values = make_rng(1).exponential(1.0, size=5000)
        for size in [*range(1, 300), 511, 1024, 4097]:
            count = len(values) // size
            rows = values[:count * size].reshape(count, size).sum(axis=1)
            assert rows.tolist() == [
                values[i * size:(i + 1) * size].sum() for i in range(count)
            ], size

    @pytest.mark.parametrize(
        "workload",
        [UniformWorkload(0.1, 2.0), LinearWorkload(600_000, 2.0, 0.3)],
        ids=lambda w: type(w).__name__,
    )
    def test_random_runs_sum_like_chunk_by_chunk(self, workload):
        """Random runs of sizes 1-2,000: each run's row sums equal the
        per-chunk ``.sum()`` of the same draw."""
        design = np.random.default_rng(0)
        for _ in range(40):
            sizes = np.repeat(
                design.integers(1, 2001, size=4),
                design.integers(1, 6, size=4),
            )
            starts = 3 + np.cumsum(sizes) - sizes
            got = workload.chunk_times_batch(starts, sizes, make_rng(1))
            tasks = workload.sample(3, int(sizes.sum()), make_rng(1))
            assert got.tolist() == [
                tasks[start - 3:start - 3 + size].sum()
                for start, size in zip(starts.tolist(), sizes.tolist())
            ]

    def test_linear_times_are_the_closed_form(self):
        """LinearWorkload computes its times in place, with the bits of
        ``first + (last - first) * clip(i / (n - 1), 0, 1)``."""
        design = np.random.default_rng(1)
        for _ in range(200):
            n = int(design.integers(2, 10**6))
            workload = LinearWorkload(n, *design.uniform(0.01, 5.0, size=2))
            start = int(design.integers(0, n + 10))
            size = int(design.integers(0, 3000))
            frac = np.clip(
                np.arange(start, start + size, dtype=np.float64) / (n - 1),
                0.0, 1.0,
            )
            want = workload.first + (workload.last - workload.first) * frac
            assert workload.sample(start, size, None).tolist() == (
                want.tolist()
            )

    def test_batch_shape_and_positivity(self):
        workload = ExponentialWorkload(1.0)
        sizes = np.asarray([4, 1, 9], dtype=np.int64)
        starts = np.cumsum(sizes) - sizes
        out = workload.chunk_times_batch(starts, sizes, make_rng(0))
        assert out.shape == (3,)
        assert (out > 0).all()


#: runs of mixed sizes spanning four tiles, with run edges inside tiles
#: and tile edges inside runs
MIXED_RUNS = PrecomputedSchedule(
    label="mixed",
    sizes=np.array([1, 3, 1, 2, 5], dtype=np.int64),
    counts=np.array([2500, 700, 1500, 900, 700], dtype=np.int64),
)


class TestReplicationTimes:
    """Chunk times drawn a tile at a time."""

    def test_tiles_expand_the_runs(self):
        sizes = np.repeat(MIXED_RUNS.sizes, MIXED_RUNS.counts)
        starts = np.cumsum(sizes) - sizes
        tiles = list(MIXED_RUNS.tiles())
        assert [t[1].size for t in tiles] == [SEGMENT_CHUNKS] * 3 + [
            sizes.size - 3 * SEGMENT_CHUNKS
        ]
        assert np.concatenate([t[0] for t in tiles]).tolist() == (
            starts.tolist()
        )
        assert np.concatenate([t[1] for t in tiles]).tolist() == (
            sizes.tolist()
        )
        assert list(MIXED_RUNS.chunks()) == list(
            zip(starts.tolist(), sizes.tolist())
        )
        assert MIXED_RUNS.num_chunks == sizes.size

    def test_an_empty_schedule_has_no_tiles(self):
        schedule = precompute_schedule(get_technique("ss")(params(n=0)))
        assert schedule.num_chunks == 0
        assert list(schedule.tiles()) == []
        assert list(schedule.replication_times(
            ExponentialWorkload(1.0), make_rng(0)
        )) == []

    @pytest.mark.parametrize(
        "workload", EVERY_WORKLOAD, ids=lambda w: type(w).__name__
    )
    def test_segments_draw_like_one_block(self, workload):
        """Three rows drawn a tile at a time: the concatenated tiles
        equal each row drawn in one call, every generator ends in that
        call's state, and ``replication_times`` is the one-row case."""
        sizes = np.repeat(MIXED_RUNS.sizes, MIXED_RUNS.counts)
        starts = np.cumsum(sizes) - sizes
        seeds = (5, 6, 7)
        rngs = [make_rng(seed) for seed in seeds]
        tiles = list(MIXED_RUNS.block_times(workload, rngs))
        assert len(tiles) >= 3
        assert all(tile.shape[1] <= SEGMENT_CHUNKS for tile in tiles)
        got = np.hstack(tiles)
        for row, seed, rng in zip(got, seeds, rngs):
            one = make_rng(seed)
            want = workload.chunk_times_batch(starts, sizes, one)
            assert row.tolist() == want.tolist()
            assert rng.bit_generator.state == one.bit_generator.state
        single = make_rng(seeds[0])
        assert list(MIXED_RUNS.replication_times(workload, single)) == (
            got[0].tolist()
        )
        assert single.bit_generator.state == rngs[0].bit_generator.state

    @pytest.mark.parametrize("simulator", ["direct-batch", "msg-fast"])
    def test_single_replication_peak_memory(self, simulator):
        """SS at n = 2**16 holds a tile of its chunks, not one entry per
        chunk: no per-chunk array of 4 or more bytes an entry fits in
        the traced peak."""
        workload = ExponentialWorkload(1.0)
        factory = get_technique("ss")

        def run(n):
            pr = params(n=n, p=8)
            if simulator == "direct-batch":
                BatchDirectSimulator(pr, workload).run_batch(factory, [1])
            else:
                FastMasterWorkerSimulation(pr, workload).run(factory, 1)

        run(64)  # imports and first-call caches are not the run's memory
        n = 1 << 16
        peak = traced_peak(run, n)
        assert peak < 4 * n, peak / n

    def test_lockstep_block_peak_memory(self):
        """A lock-step block of 48 SS replications at n = 2**15 steps
        through ``(48, SEGMENT_CHUNKS)`` tiles, never the ``(48, n)``
        chunk-time matrix (16 tiles, 12.6 MB), and drops each tile
        before the next is drawn: its traced peak stays within two
        tiles."""
        n, p, reps = 1 << 15, 64, 48
        assert _lockstep_wins(reps, p)
        workload = ExponentialWorkload(1.0)
        factory = get_technique("ss")

        def run(n):
            BatchDirectSimulator(params(n=n, p=p), workload).run_batch(
                factory, range(reps)
            )

        run(64)  # imports and first-call caches are not the run's memory
        peak = traced_peak(run, n)
        tile_nbytes = reps * SEGMENT_CHUNKS * 8
        assert n >= 16 * SEGMENT_CHUNKS
        assert peak < 2 * tile_nbytes, peak / tile_nbytes


def traced_peak(run, n):
    """The traced peak of ``run(n)``, in bytes."""
    tracemalloc.start()
    try:
        run(n)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRunnerIntegration:
    def make_task(self, technique="fac2", simulator="direct-batch"):
        return RunTask(
            technique=technique,
            params=scheduling_params(512, 4),
            workload=ExponentialWorkload(1.0),
            simulator=simulator,
        )

    def test_direct_batch_deterministic(self):
        a = run_replicated(self.make_task(), 6, campaign_seed=3, processes=1)
        b = run_replicated(self.make_task(), 6, campaign_seed=3, processes=1)
        assert [r.makespan for r in a] == [r.makespan for r in b]
        assert len({r.makespan for r in a}) == 6

    def test_direct_batch_pool_matches_sequential(self):
        """Block seeding is worker-count independent: 2-process pool and
        the in-process loop must produce identical campaigns."""
        from repro.experiments.runner import BATCH_BLOCK_RUNS

        runs = BATCH_BLOCK_RUNS + 5  # force >1 block
        task = self.make_task()
        seq = run_replicated(task, runs, campaign_seed=11, processes=1)
        pooled = run_replicated(task, runs, campaign_seed=11, processes=2)
        assert [r.makespan for r in pooled] == [r.makespan for r in seq]

    def test_adaptive_runs_natively_on_batch(self):
        """BOLD on direct-batch is served by the stepping kernel — no
        fallback event — and on a deterministic workload it is
        bit-identical to the scalar oracle run-for-run."""
        import dataclasses

        from repro.backends import drain_fallback_events

        drain_fallback_events()
        batch_task = dataclasses.replace(
            self.make_task("bold"), workload=ConstantWorkload(1.0)
        )
        got = run_replicated(batch_task, 3, campaign_seed=5, processes=1)
        assert all(r.stats.backend == "direct-batch" for r in got)
        assert drain_fallback_events() == []
        want = run_replicated(
            dataclasses.replace(batch_task, simulator="direct"), 3,
            campaign_seed=5, processes=1,
        )
        assert [r.makespan for r in got] == [r.makespan for r in want]

    def test_single_run_task_execute(self):
        result = self.make_task().execute()
        assert result.total_task_time > 0
        assert result.num_chunks > 0

    def test_repro_workers_env(self, monkeypatch):
        from repro.experiments.runner import resolve_workers

        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers() == 3
        assert resolve_workers(7) == 7  # explicit argument wins
        monkeypatch.delenv("REPRO_WORKERS")
        assert resolve_workers() >= 1


class TestSeedPlumbing:
    """Satellite: RunTask without explicit entropy must be reproducible
    (seed derived from the task's fields, not OS entropy)."""

    def make_task(self):
        return RunTask(
            technique="fac2",
            params=scheduling_params(256, 4),
            workload=ExponentialWorkload(1.0),
            simulator="direct",
        )

    def test_empty_entropy_is_deterministic(self):
        assert self.make_task().execute().makespan == \
            self.make_task().execute().makespan

    def test_derived_entropy_depends_on_fields(self):
        a = self.make_task()
        b = RunTask(**{**a.__dict__, "technique": "gss"})
        assert a.derived_entropy() != b.derived_entropy()

    def test_explicit_entropy_wins(self):
        a = self.make_task()
        b = RunTask(**{**a.__dict__, "seed_entropy": (1, 2, 3)})
        assert b.execute() == DirectSimulator(b.params, b.workload).run(
            get_technique(b.technique), np.random.SeedSequence([1, 2, 3])
        )
        assert a.execute().makespan != b.execute().makespan
