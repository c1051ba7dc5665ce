"""Tests for the MSG master-worker DLS application."""

from __future__ import annotations

import pytest

from repro.core.params import SchedulingParams
from repro.core.registry import make_factory
from repro.metrics.wasted_time import OverheadModel
from repro.simgrid import (
    MasterWorkerSimulation,
    fast_network_platform,
    star_platform,
)
from repro.workloads import ConstantWorkload, ExponentialWorkload

from conftest import BOLD_EIGHT


def make_sim(n=100, p=4, h=0.5, workload=None, platform=None,
             **options) -> MasterWorkerSimulation:
    params = SchedulingParams(n=n, p=p, h=h, mu=1.0, sigma=1.0)
    return MasterWorkerSimulation(
        params, workload or ConstantWorkload(1.0), platform=platform,
        **options,
    )


class TestProtocol:
    def test_every_technique_completes(self):
        for name in BOLD_EIGHT + ("css", "wf", "tap", "awf-b", "af"):
            result = make_sim(n=64).run(make_factory(name), seed=0)
            assert result.total_task_time == pytest.approx(64.0), name
            assert sum(result.chunks_per_worker) == result.num_chunks

    def test_free_network_constant_workload_balance(self):
        result = make_sim().run(make_factory("stat"))
        assert result.makespan == pytest.approx(25.0, rel=1e-6)
        assert result.compute_times == pytest.approx([25.0] * 4)

    def test_extras_recorded(self):
        result = make_sim().run(make_factory("gss"))
        extras = result.extras
        # One request per chunk plus one final request per worker.
        assert extras["total_requests"] == result.num_chunks + 4
        # Master sees every request.
        assert extras["master_messages"] == extras["total_requests"]
        assert len(extras["wait_times"]) == 4

    def test_deterministic_given_seed(self):
        sim = make_sim(workload=ExponentialWorkload(1.0))
        a = sim.run(make_factory("fac2"), seed=5)
        b = sim.run(make_factory("fac2"), seed=5)
        assert a.makespan == b.makespan

    def test_network_latency_slows_execution(self):
        fast = make_sim(platform=fast_network_platform(4))
        slow = make_sim(
            platform=star_platform(4, bandwidth=1e6, latency=0.05)
        )
        t_fast = fast.run(make_factory("ss")).makespan
        t_slow = slow.run(make_factory("ss")).makespan
        assert t_slow > t_fast

    def test_fresh_scheduler_required(self):
        from repro.core.registry import create

        sim = make_sim()
        scheduler = create("gss", sim.params)
        sim.run(scheduler)
        with pytest.raises(ValueError, match="fresh"):
            sim.run(scheduler)

    def test_start_times_respected(self):
        result = make_sim(
            n=20, h=0.0, start_times=[0.0, 50.0, 0.0, 0.0]
        ).run(make_factory("gss"))
        # Worker 1 joins at t=50, after all 20 seconds of work is gone.
        assert result.chunks_per_worker[1] == 0

    def test_start_time_validation(self):
        with pytest.raises(ValueError, match="start times"):
            make_sim(start_times=[0.0])

    def test_adaptive_feedback_received(self):
        """AWF-C sees real chunk times piggy-backed on requests."""
        from repro.core.registry import create

        params = SchedulingParams(n=512, p=2, h=0.0)
        platform = star_platform(
            2, worker_speed=[1.0, 5.0], bandwidth=1e12, latency=1e-9
        )
        sim = MasterWorkerSimulation(params, ConstantWorkload(1.0), platform)
        scheduler = create("awf-c", params)
        sim.run(scheduler)
        w = scheduler.current_weights()
        assert w[1] > w[0]  # learned that worker 1 is faster


class TestOverheadModels:
    def test_post_hoc_accounting(self):
        result = make_sim(n=100, p=4).run(make_factory("ss"))
        assert result.average_wasted_time == pytest.approx(12.5, rel=1e-3)

    def test_per_worker_inflates_makespan(self):
        result = make_sim(overhead_model=OverheadModel.PER_WORKER).run(
            make_factory("ss")
        )
        assert result.makespan == pytest.approx(37.5, rel=1e-6)

    def test_serialized_master_respects_h(self):
        result = make_sim(
            n=4, p=4, h=2.0, overhead_model=OverheadModel.SERIALIZED_MASTER
        ).run(make_factory("ss"))
        assert result.makespan == pytest.approx(9.0, rel=1e-6)
        assert result.extras["master_busy_time"] == pytest.approx(8.0)


class TestHeterogeneousPlatform:
    def test_faster_worker_does_more(self):
        params = SchedulingParams(n=200, p=2, h=0.0)
        platform = star_platform(
            2, worker_speed=[1.0, 3.0], bandwidth=1e12, latency=1e-9
        )
        sim = MasterWorkerSimulation(params, ConstantWorkload(1.0), platform)
        result = sim.run(make_factory("ss"))
        slow, fast = result.chunks_per_worker
        assert fast > 2 * slow

    def test_missing_worker_host_rejected(self):
        params = SchedulingParams(n=10, p=3)
        platform = star_platform(2)  # one worker short
        with pytest.raises(KeyError, match="worker-2"):
            MasterWorkerSimulation(params, ConstantWorkload(1.0), platform)


class TestChunkLogAndReplication:
    def test_chunk_log_recorded(self):
        result = make_sim(record_chunks=True).run(make_factory("gss"))
        assert len(result.chunk_log) == result.num_chunks
        assert sum(c.record.size for c in result.chunk_log) == 100
