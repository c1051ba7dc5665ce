"""Tests for fault injection and load fluctuation (refs [2], [3])."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.base import ChunkRecord
from repro.core.params import SchedulingParams
from repro.core.registry import create, make_factory
from repro.directsim import (
    AllWorkersFailedError,
    DirectSimulator,
    FailStop,
    LognormalFluctuation,
    StepFluctuation,
)
from repro.workloads import ConstantWorkload, ExponentialWorkload


def make_sim(n=100, p=4, h=0.0, **kwargs) -> DirectSimulator:
    params = SchedulingParams(n=n, p=p, h=h, mu=1.0, sigma=1.0)
    return DirectSimulator(params, ConstantWorkload(1.0), **kwargs)


class TestRequeue:
    def test_requeue_returns_tasks_to_pool(self):
        s = create("gss", SchedulingParams(n=20, p=4))
        size = s.next_chunk(0)
        record = s.last_chunk
        s.requeue_chunk(record)
        assert s.state.remaining == 20
        assert s.state.outstanding == 0
        # The lost region is re-issued first, same start index.
        size2 = s.next_chunk(1)
        assert s.last_chunk.start == record.start
        assert size2 <= size

    def test_requeue_split_region(self):
        s = create("stat", SchedulingParams(n=20, p=4))
        s.next_chunk(0)  # 5 tasks [0, 5)
        record = s.last_chunk
        s.requeue_chunk(record)
        # SS-style re-issue in smaller pieces: force by draining with a
        # technique whose chunks shrink — here STAT re-issues 5 again.
        size = s.next_chunk(1)
        assert size == 5
        assert s.last_chunk.start == 0

    def test_requeue_more_than_outstanding_rejected(self):
        s = create("gss", SchedulingParams(n=20, p=4))
        s.next_chunk(0)
        bogus = ChunkRecord(index=99, worker=0, start=0, size=1000)
        with pytest.raises(ValueError, match="requeue"):
            s.requeue_chunk(bogus)

    def test_requeue_zero_noop(self):
        s = create("gss", SchedulingParams(n=20, p=4))
        s.next_chunk(0)
        s.requeue_chunk(ChunkRecord(index=0, worker=0, start=0, size=0))
        assert s.state.remaining == 15


class TestFailStop:
    def test_failed_worker_work_redistributed(self):
        # Worker 0 dies at t=10; its in-flight chunk is redone by others.
        sim = make_sim(failures=FailStop({0: 10.0}))
        result = sim.run(make_factory("fac2"))
        assert result.extras["lost_chunks"] >= 1
        # All 100 tasks still executed (some twice): total >= 100 s.
        assert result.total_task_time >= 100.0
        # Worker 0 contributed only before its failure.
        assert result.compute_times[0] <= 10.0 + 1e-9

    def test_immediate_failure_excludes_worker(self):
        sim = make_sim(failures=FailStop({0: 0.0}))
        result = sim.run(make_factory("gss"))
        assert result.chunks_per_worker[0] == 0
        assert result.total_task_time == pytest.approx(100.0)

    def test_all_workers_failing_raises(self):
        sim = make_sim(failures=FailStop({w: 1.0 for w in range(4)}))
        with pytest.raises(AllWorkersFailedError):
            sim.run(make_factory("stat"))

    def test_dynamic_techniques_resilient_vs_static(self):
        """Fine-grained techniques lose less work to a failure (ref [3])."""
        failures = FailStop({0: 5.0})
        lost = {}
        for name in ("stat", "fac2"):
            sim = make_sim(n=100, p=4, failures=failures)
            result = sim.run(make_factory(name))
            lost[name] = result.extras["lost_tasks"]
        # STAT loses its whole 25-task chunk; FAC2 loses at most one
        # (smaller) in-flight chunk.
        assert lost["stat"] == 25
        assert lost["fac2"] < lost["stat"]

    def test_makespan_grows_under_failure(self):
        base = make_sim().run(make_factory("fac2"))
        failed = make_sim(failures=FailStop({0: 5.0})).run(
            make_factory("fac2")
        )
        assert failed.makespan > base.makespan

    def test_validation(self):
        with pytest.raises(ValueError):
            FailStop({-1: 1.0})
        with pytest.raises(ValueError):
            FailStop({0: -1.0})


class TestFluctuation:
    def test_lognormal_unit_mean(self):
        fluct = LognormalFluctuation(sigma=0.5)
        rng = np.random.default_rng(0)
        draws = [fluct.multiplier(0, 0.0, rng) for _ in range(20_000)]
        assert np.mean(draws) == pytest.approx(1.0, rel=0.03)

    def test_zero_sigma_is_identity(self):
        fluct = LognormalFluctuation(sigma=0.0)
        rng = np.random.default_rng(0)
        assert fluct.multiplier(0, 0.0, rng) == 1.0

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            LognormalFluctuation(sigma=-0.1)

    def test_fluctuation_increases_wasted_time(self):
        params = SchedulingParams(n=2048, p=8, h=0.01, mu=1.0, sigma=1.0)
        workload = ExponentialWorkload(1.0)
        quiet = DirectSimulator(params, workload)
        noisy = DirectSimulator(
            params, workload, fluctuation=LognormalFluctuation(1.0)
        )
        import statistics

        q = statistics.mean(
            quiet.run(make_factory("stat"), seed=i).average_wasted_time
            for i in range(10)
        )
        n_ = statistics.mean(
            noisy.run(make_factory("stat"), seed=i).average_wasted_time
            for i in range(10)
        )
        assert n_ > q

    def test_static_chunks_waste_most_at_every_intensity(self):
        """Ref [2]'s flexibility finding: load noise raises every
        technique's wasted time, and STAT wastes more than FAC2 at every
        intensity (FAC2's frequent rebalancing absorbs the noise)."""
        import statistics

        params = SchedulingParams(n=4096, p=8, h=0.05, mu=1.0, sigma=1.0)
        sigmas = (0.0, 0.25, 0.5, 1.0)
        table = {}
        for name in ("stat", "gss", "tss", "fac2", "bold"):
            table[name] = [
                statistics.mean(
                    DirectSimulator(
                        params, ExponentialWorkload(1.0),
                        fluctuation=LognormalFluctuation(s) if s else None,
                    ).run(make_factory(name), seed=i).average_wasted_time
                    for i in range(5)
                )
                for s in sigmas
            ]
        for name, values in table.items():
            assert values[-1] > values[0], name
        assert all(s > f for s, f in zip(table["stat"], table["fac2"]))

    def test_step_fluctuation_applies_after_time(self):
        fluct = StepFluctuation({0: (10.0, 0.5)})
        rng = np.random.default_rng(0)
        assert fluct.multiplier(0, 5.0, rng) == 1.0
        assert fluct.multiplier(0, 10.0, rng) == 0.5
        assert fluct.multiplier(1, 20.0, rng) == 1.0

    def test_step_fluctuation_validation(self):
        with pytest.raises(ValueError):
            StepFluctuation({0: (-1.0, 0.5)})
        with pytest.raises(ValueError):
            StepFluctuation({0: (1.0, 0.0)})

    def test_weighted_batches_protect_against_slow_pe(self):
        """Under a slowed PE, GSS's oversized early chunks hurt while
        AWF-C's learned weights (and FAC2's smaller batches) keep the
        makespan near the capacity bound — ref [2]'s flexibility point.
        """
        params = SchedulingParams(n=4096, p=4, h=0.0, mu=1.0, sigma=1.0)
        fluct = StepFluctuation({0: (0.0, 0.5)})  # PE 0 is 2x slow
        workload = ConstantWorkload(1.0)

        def makespan(name):
            sim = DirectSimulator(params, workload, fluctuation=fluct)
            return sim.run(make_factory(name), seed=0).makespan

        bound = 4096 / 3.5  # total work over total effective speed
        assert makespan("gss") > 1.5 * bound   # big first chunk on slow PE
        assert makespan("awf-c") < 1.1 * bound
        assert makespan("fac2") < 1.1 * bound
