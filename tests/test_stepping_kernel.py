"""Cross-validation of the batched adaptive stepping kernel against the
scalar direct simulator (the reference oracle).

Fidelity contract (docs/simulators.md, "The adaptive stepping kernel"):
every replication is bit-identical to the scalar run under its seed —
including the per-chunk execution logs — on every workload.

``run_batch`` runs a block narrow enough for ``DirectSimulator``'s loop
to win on that loop (``_scalar_wins``), so the bit-identity checks on
a few replications call the stepping kernel itself.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.params import SchedulingParams
from repro.core.registry import get_technique, technique_names
from repro.core.schedule import closed_form_supported
from repro.core.stepping import SteppingState, ordered_sum
from repro.directsim import (
    BatchDirectSimulator,
    DirectSimulator,
    OverheadModel,
)
from repro.directsim.batch import _scalar_wins
from repro.experiments.runner import RunTask, run_replicated
from repro.workloads import ConstantWorkload, ExponentialWorkload
from repro.workloads.distributions import LinearWorkload, TraceWorkload
from repro.workloads.generator import make_rng

#: every technique served by the stepping kernel (no closed-form path)
STEPPING = (
    "awf", "awf-b", "awf-c", "awf-d", "awf-e", "af", "bold",
    "wf", "pls", "rnd",
)


def params(n=613, p=4):
    return SchedulingParams(n=n, p=p, h=0.25, mu=1.0, sigma=1.0)


def speeds_for(p):
    return [1.0 + 0.13 * (i % 5) for i in range(p)]


def starts_for(p):
    return [0.25 * (i % 3) for i in range(p)]


def scalar_runs(pr, workload, name, reps, **kwargs):
    sim = DirectSimulator(pr, workload, record_chunks=True, **kwargs)
    return [
        sim.run(get_technique(name), seed=1000 + i) for i in range(reps)
    ]


def batch_runs(pr, workload, name, reps, **kwargs):
    """``reps`` replications on the stepping kernel, however few."""
    sim = BatchDirectSimulator(pr, workload, record_chunks=True, **kwargs)
    return sim._run_stepping_block(
        get_technique(name)(pr), [make_rng(1000 + i) for i in range(reps)]
    )


def assert_bit_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.makespan == w.makespan
        assert g.compute_times == w.compute_times
        assert g.chunks_per_worker == w.chunks_per_worker
        assert g.num_chunks == w.num_chunks
        assert g.total_task_time == w.total_task_time
        assert g.chunk_log == w.chunk_log


class TestRegistry:
    @pytest.mark.parametrize("name", STEPPING)
    def test_stepping_supported(self, name):
        assert get_technique(name).stepping_state is not None

    def test_state_rejects_nonpositive_reps(self):
        proto = get_technique("awf")(params())
        with pytest.raises(ValueError):
            proto.stepping_state(proto, 0)

    def test_ordered_sum_matches_sequential_accumulation(self):
        rng = np.random.default_rng(7)
        values = rng.exponential(1.0, size=(5, 33))
        for row in values:
            acc = 0.0
            for v in row:
                acc += v
            assert ordered_sum(row) == acc
        assert np.all(
            ordered_sum(values) == [sum(row) * 0 + ordered_sum(row)
                                    for row in values]
        )


class TestBitIdentity:
    """Deterministic workloads: the kernel must reproduce the scalar
    oracle exactly, per replication, chunk log included."""

    @pytest.mark.parametrize("name", STEPPING)
    @pytest.mark.parametrize("p", (4, 16, 64))
    def test_constant_heterogeneous(self, name, p):
        pr = params(n=613, p=p)
        workload = ConstantWorkload(1.0)
        kwargs = dict(speeds=speeds_for(p), start_times=starts_for(p))
        want = scalar_runs(pr, workload, name, 3, **kwargs)
        got = batch_runs(pr, workload, name, 3, **kwargs)
        assert_bit_identical(got, want)

    @pytest.mark.parametrize("name", STEPPING)
    @pytest.mark.parametrize(
        "model", list(OverheadModel), ids=lambda m: m.value
    )
    def test_linear_workload_all_overhead_models(self, name, model):
        pr = params(n=400, p=5)
        workload = LinearWorkload(400, 2.0, 0.5)
        want = scalar_runs(pr, workload, name, 2, overhead_model=model)
        got = batch_runs(pr, workload, name, 2, overhead_model=model)
        assert_bit_identical(got, want)

    @pytest.mark.parametrize("name", ("awf-c", "bold", "wf", "rnd"))
    def test_trace_workload(self, name):
        rng = np.random.default_rng(3)
        pr = params(n=350, p=4)
        workload = TraceWorkload(rng.exponential(1.0, size=350))
        want = scalar_runs(pr, workload, name, 2)
        got = batch_runs(pr, workload, name, 2)
        assert_bit_identical(got, want)

    @pytest.mark.parametrize("name", ("awf-b", "af", "pls"))
    def test_block_streaming_is_invisible(self, name, monkeypatch):
        """A tiny MAX_BLOCK_ELEMENTS forces many internal blocks; on a
        deterministic workload the partitioning cannot change results."""
        pr = params(n=300, p=4)
        workload = ConstantWorkload(1.0)
        assert not _scalar_wins(12, pr.p)
        one = BatchDirectSimulator(pr, workload).run_batch(
            get_technique(name), range(12)
        )
        monkeypatch.setattr("repro.directsim.batch.MAX_BLOCK_ELEMENTS", 1)
        many = BatchDirectSimulator(pr, workload).run_batch(
            get_technique(name), range(12)
        )
        assert [r.makespan for r in many] == [r.makespan for r in one]
        assert [r.num_chunks for r in many] == [r.num_chunks for r in one]

    def test_single_task_tiny_cell(self):
        """n=1: one chunk, every technique's clip path."""
        for name in STEPPING:
            pr = params(n=1, p=3)
            workload = ConstantWorkload(2.0)
            want = scalar_runs(pr, workload, name, 2)
            got = batch_runs(pr, workload, name, 2)
            assert_bit_identical(got, want)


class TestDistributionalEquality:
    """Stochastic workloads: each replication draws from its own seed's
    generator in the scalar order, so the runs are the scalar runs."""

    @pytest.mark.parametrize("name", STEPPING)
    def test_exponential_makespans_ks(self, name):
        pr = params(n=1024, p=8)
        workload = ExponentialWorkload(1.0)
        seeds = [2000 + i for i in range(120)]
        scalar = DirectSimulator(pr, workload)
        want = [scalar.run(get_technique(name), seed=s) for s in seeds]
        got = BatchDirectSimulator(pr, workload).run_batch(
            get_technique(name), seeds
        )
        assert got == want, name

    @pytest.mark.parametrize("name", ("rnd", "pls"))
    @pytest.mark.parametrize("p", (4, 16))
    def test_worker_dependent_ks_across_p(self, name, p):
        pr = params(n=1024, p=p)
        workload = ExponentialWorkload(1.0)
        seeds = [3000 + i for i in range(100)]
        scalar = DirectSimulator(pr, workload)
        want = [scalar.run(get_technique(name), seed=s) for s in seeds]
        got = BatchDirectSimulator(pr, workload).run_batch(
            get_technique(name), seeds
        )
        assert got == want

    def test_rnd_chunk_sequences_match_scalar_draw_for_draw(self):
        """RND consumes one draw per scheduling operation from the
        technique seed; the kernel's shared-draw trick must reproduce
        each scalar run's size sequence exactly."""
        pr = params(n=800, p=4)
        workload = ConstantWorkload(1.0)
        want = scalar_runs(pr, workload, "rnd", 3)
        got = batch_runs(pr, workload, "rnd", 3)
        for g, w in zip(got, want):
            assert [e.record.size for e in g.chunk_log] == [
                e.record.size for e in w.chunk_log
            ]


def widths_around_the_rule(p):
    """The widest block ``run_batch`` runs on the scalar loop at ``p``
    and the narrowest it runs on the stepping kernel."""
    wide = next(reps for reps in range(1, 1000) if not _scalar_wins(reps, p))
    return wide - 1, wide


class TestKernelChoice:
    """``run_batch`` runs narrow feedback blocks on ``DirectSimulator``'s
    loop and wider ones on the stepping kernel; either side returns
    ``direct``'s results for the same seeds."""

    @pytest.mark.parametrize("name", ("awf-c", "bold", "rnd"))
    @pytest.mark.parametrize("p, skewed", [
        (4, False), (64, False), (4, True), (64, True),
    ], ids=["4", "64", "4-skewed", "64-skewed"])
    def test_each_side_of_the_rule_equals_direct(self, name, p, skewed):
        """``skewed`` adds heterogeneous speeds and staggered starts,
        which the narrow side's inherited ``run`` reads as well."""
        pr = params(n=700, p=p)
        workload = ExponentialWorkload(1.0)
        kwargs = (dict(speeds=speeds_for(p), start_times=starts_for(p))
                  if skewed else {})
        narrow, wide = widths_around_the_rule(p)
        assert narrow >= 1
        scalar = DirectSimulator(pr, workload, **kwargs)
        for reps, fast_path in ((narrow, False), (wide, True)):
            seeds = [np.random.SeedSequence([5, i]) for i in range(reps)]
            got = BatchDirectSimulator(pr, workload, **kwargs).run_batch(
                get_technique(name), seeds
            )
            assert got == [scalar.run(get_technique(name), s) for s in seeds]
            # RunStats.fast_path tells the stepping kernel from the loop
            assert {r.stats.fast_path for r in got} == {fast_path}

    @pytest.mark.parametrize("name", STEPPING)
    def test_scalar_side_copies_an_instance(self, name):
        """An instance is the never-mutated prototype on both sides: the
        scalar loop runs a fresh copy of it per replication."""
        pr = params(n=300, p=4)
        workload = ExponentialWorkload(1.0)
        prototype = get_technique(name)(pr)
        seeds = [1, 2, 3]
        assert _scalar_wins(len(seeds), pr.p)
        got = BatchDirectSimulator(pr, workload).run_batch(prototype, seeds)
        assert got == BatchDirectSimulator(pr, workload).run_batch(
            get_technique(name), seeds
        )
        assert prototype.state.scheduled_chunks == 0


class TestRunnerIntegration:
    def make_task(self, technique="awf-c", simulator="direct-batch",
                  **overrides):
        kwargs = dict(
            technique=technique,
            params=params(n=512, p=4),
            workload=ExponentialWorkload(1.0),
            simulator=simulator,
        )
        kwargs.update(overrides)
        return RunTask(**kwargs)

    def test_every_stepping_technique_resolves_without_fallback(self):
        from repro.backends import drain_fallback_events, resolve_backend

        drain_fallback_events()
        for name in STEPPING:
            assert resolve_backend(self.make_task(name)).name == (
                "direct-batch"
            )
        assert drain_fallback_events() == []

    def test_replicated_adaptive_campaign_deterministic(self):
        a = run_replicated(self.make_task(), 6, campaign_seed=3, processes=1)
        b = run_replicated(self.make_task(), 6, campaign_seed=3, processes=1)
        assert [r.makespan for r in a] == [r.makespan for r in b]
        assert all(r.stats.backend == "direct-batch" for r in a)

    def test_pool_matches_sequential(self):
        from repro.experiments.runner import BATCH_BLOCK_RUNS

        runs = BATCH_BLOCK_RUNS + 3  # force >1 block
        task = self.make_task("bold")
        seq = run_replicated(task, runs, campaign_seed=11, processes=1)
        pooled = run_replicated(task, runs, campaign_seed=11, processes=2)
        assert [r.makespan for r in pooled] == [r.makespan for r in seq]


class TestCacheRegression:
    """direct-batch shares direct's seeds and cache entries: an entry the
    scalar simulator stored serves the stepping kernel's task."""

    def det_task(self, **overrides):
        kwargs = dict(
            technique="awf-c",
            params=params(n=256, p=4),
            workload=ConstantWorkload(1.0),
            simulator="direct-batch",
        )
        kwargs.update(overrides)
        return RunTask(**kwargs)

    def test_deterministic_scalar_era_entry_is_a_clean_hit(self, tmp_path):
        """An entry the direct simulator produced, stored under the
        direct-batch task's key (the key of the same task on direct):
        direct-batch serves it bit-identically, so it is a hit and
        passes verification."""
        from repro.cache import cache_to

        task = self.det_task()
        with cache_to(tmp_path, verify_fraction=1.0) as cache:
            key = cache.task_key(task)
            sim = DirectSimulator(task.params, task.workload)
            scalar_result = sim.run(
                get_technique(task.technique),
                seed=np.random.SeedSequence(list(task.derived_entropy())),
            )
            cache.put(key, [scalar_result], backend="direct")
            result = task.execute()
        assert cache.stats.hits == 1
        assert cache.stats.misses == 0
        assert result.makespan == scalar_result.makespan

    def test_stochastic_direct_entry_is_a_verified_hit(self, tmp_path):
        """A stochastic sweep too: the entry a direct sweep stored
        serves the same direct-batch sweep, and a fresh stepping-kernel
        run under verification reproduces it."""
        from repro.cache import cache_to

        task = self.det_task(workload=ExponentialWorkload(1.0))
        direct = dataclasses.replace(task, simulator="direct")
        runs = 16
        assert not _scalar_wins(runs, task.params.p)
        with cache_to(tmp_path, verify_fraction=1.0) as cache:
            assert cache.sweep_key(task, runs, 3) == cache.sweep_key(
                direct, runs, 3
            )
            stored = run_replicated(direct, runs, campaign_seed=3,
                                    processes=1)
            served = run_replicated(task, runs, campaign_seed=3,
                                    processes=1)
        assert served == stored
        assert cache.stats.hits == 1
        assert cache.stats.verified == 1
        assert cache.stats.stores == 1


class TestCoverage:
    def test_stepping_plus_closed_form_cover_registry(self):
        """Each registered technique has exactly one of the two forms."""
        for name in technique_names():
            stepping = get_technique(name).stepping_state is not None
            assert closed_form_supported(name) != stepping, name

    def test_stepping_states_subclass_base(self):
        for name in STEPPING:
            proto = get_technique(name)(params(n=64, p=4))
            state = proto.stepping_state(proto, 2)
            assert isinstance(state, SteppingState)
