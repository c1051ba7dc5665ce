"""Tests for the direct (Hagerup-replica) simulator."""

from __future__ import annotations

import pytest

from repro.core.params import SchedulingParams
from repro.core.registry import create, make_factory
from repro.directsim import DirectSimulator, OverheadModel
from repro.workloads import ConstantWorkload, ExponentialWorkload

from conftest import BOLD_EIGHT


def make_sim(n=100, p=4, h=0.5, workload=None, **kwargs) -> DirectSimulator:
    params = SchedulingParams(n=n, p=p, h=h, mu=1.0, sigma=1.0)
    return DirectSimulator(params, workload or ConstantWorkload(1.0), **kwargs)


class TestBasicRuns:
    def test_constant_workload_perfect_balance(self):
        # 100 tasks of 1s on 4 PEs with STAT: makespan exactly 25.
        result = make_sim().run(make_factory("stat"))
        assert result.makespan == pytest.approx(25.0)
        assert result.compute_times == pytest.approx([25.0] * 4)
        assert result.num_chunks == 4

    def test_all_tasks_executed(self):
        for name in BOLD_EIGHT:
            result = make_sim(n=137).run(make_factory(name))
            assert sum(result.chunks_per_worker) == result.num_chunks
            assert result.total_task_time == pytest.approx(137.0)

    def test_makespan_at_least_critical_path(self):
        result = make_sim(n=64, p=8).run(make_factory("ss"))
        assert result.makespan >= max(result.compute_times) - 1e-12

    def test_speedup_bounded_by_p(self):
        result = make_sim(n=1000, p=8).run(make_factory("fac2"))
        assert 0 < result.speedup <= 8.0 + 1e-9

    def test_fresh_scheduler_required(self):
        sim = make_sim()
        scheduler = create("gss", sim.params)
        sim.run(scheduler)
        with pytest.raises(ValueError, match="fresh"):
            sim.run(scheduler)

    def test_scheduler_instance_accepted(self):
        sim = make_sim()
        result = sim.run(create("gss", sim.params))
        assert result.technique == "GSS"

    def test_deterministic_given_seed(self):
        sim = make_sim(workload=ExponentialWorkload(1.0))
        a = sim.run(make_factory("fac2"), seed=11)
        b = sim.run(make_factory("fac2"), seed=11)
        assert a.makespan == b.makespan
        assert a.compute_times == b.compute_times

    def test_different_seeds_differ(self):
        sim = make_sim(workload=ExponentialWorkload(1.0))
        a = sim.run(make_factory("fac2"), seed=1)
        b = sim.run(make_factory("fac2"), seed=2)
        assert a.makespan != b.makespan


class TestOverheadModels:
    def test_post_hoc_adds_overhead_outside_makespan(self):
        base = make_sim(overhead_model=OverheadModel.POST_HOC)
        result = base.run(make_factory("ss"), seed=0)
        # idle average is 0 for constant workload and p | n;
        # wasted = h * n / p = 0.5 * 100 / 4.
        assert result.average_wasted_time == pytest.approx(12.5)
        assert result.makespan == pytest.approx(25.0)

    def test_per_worker_inflates_makespan(self):
        sim = make_sim(overhead_model=OverheadModel.PER_WORKER)
        result = sim.run(make_factory("ss"), seed=0)
        # Each worker: 25 chunks of (0.5 overhead + 1s work) = 37.5.
        assert result.makespan == pytest.approx(37.5)
        assert result.average_wasted_time == pytest.approx(12.5)

    def test_serialized_master_queues_requests(self):
        sim = make_sim(n=4, p=4, h=2.0,
                       overhead_model=OverheadModel.SERIALIZED_MASTER)
        result = sim.run(make_factory("ss"), seed=0)
        # Master serves requests at t=2,4,6,8; last worker computes 1s.
        assert result.makespan == pytest.approx(9.0)

    def test_post_hoc_equals_per_worker_accounting_for_stat(self):
        # STAT gives each worker exactly one chunk, so both accountings
        # charge h once per worker.
        post = make_sim(overhead_model=OverheadModel.POST_HOC).run(
            make_factory("stat"), seed=0
        )
        per = make_sim(overhead_model=OverheadModel.PER_WORKER).run(
            make_factory("stat"), seed=0
        )
        assert post.average_wasted_time == pytest.approx(
            per.average_wasted_time
        )


class TestHeterogeneity:
    def test_speeds_scale_compute_time(self):
        sim = make_sim(n=100, p=2, h=0.0, speeds=[1.0, 4.0])
        result = sim.run(make_factory("ss"))
        # The 4x faster worker executes ~4x the tasks.
        slow, fast = result.chunks_per_worker
        assert fast == pytest.approx(4 * slow, abs=2)

    def test_speed_validation(self):
        params = SchedulingParams(n=10, p=2)
        with pytest.raises(ValueError, match="speeds"):
            DirectSimulator(params, ConstantWorkload(1.0), speeds=[1.0])
        with pytest.raises(ValueError, match="positive"):
            DirectSimulator(params, ConstantWorkload(1.0), speeds=[1.0, 0.0])

    def test_start_times_delay_workers(self):
        sim = make_sim(n=10, p=2, h=0.0, start_times=[0.0, 100.0])
        result = sim.run(make_factory("gss"))
        # Worker 0 does everything before worker 1 even starts.
        assert result.chunks_per_worker[1] == 0
        assert result.makespan <= 10.0 + 1e-9

    def test_start_time_validation(self):
        params = SchedulingParams(n=10, p=2)
        with pytest.raises(ValueError, match="start times"):
            DirectSimulator(
                params, ConstantWorkload(1.0), start_times=[0.0]
            )
        with pytest.raises(ValueError, match="non-negative"):
            DirectSimulator(
                params, ConstantWorkload(1.0), start_times=[0.0, -1.0]
            )


class TestChunkLog:
    def test_disabled_by_default(self):
        result = make_sim().run(make_factory("gss"))
        assert result.chunk_log == []

    def test_records_every_chunk(self):
        sim = make_sim(record_chunks=True)
        result = sim.run(make_factory("gss"))
        assert len(result.chunk_log) == result.num_chunks
        assert sum(c.record.size for c in result.chunk_log) == 100

    def test_execution_windows_are_ordered_per_worker(self):
        sim = make_sim(record_chunks=True, workload=ExponentialWorkload(1.0))
        result = sim.run(make_factory("fac2"), seed=3)
        by_worker: dict[int, list] = {}
        for ce in result.chunk_log:
            by_worker.setdefault(ce.record.worker, []).append(ce)
        for executions in by_worker.values():
            for a, b in zip(executions, executions[1:]):
                assert b.start_time >= a.end_time - 1e-9


class TestAdaptive:
    def test_adaptive_techniques_run(self):
        sim = make_sim(n=512, p=4, workload=ExponentialWorkload(1.0))
        for name in ("awf-b", "awf-c", "af"):
            result = sim.run(make_factory(name), seed=1)
            assert result.total_task_time > 0
