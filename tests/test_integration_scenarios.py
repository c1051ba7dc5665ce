"""End-to-end integration scenarios crossing several subsystems."""

from __future__ import annotations

import pytest

from repro.core.params import SchedulingParams
from repro.core.registry import create, make_factory
from repro.metrics.wasted_time import OverheadModel
from repro.simgrid import MasterWorkerSimulation, star_platform
from repro.workloads import ConstantWorkload, ExponentialWorkload


class TestSerializedMasterWithLatency:
    def test_master_contention_and_network_compose(self):
        """h at the master and per-message latency stack up for SS."""
        p, n, h = 8, 256, 0.01
        params = SchedulingParams(n=n, p=p, h=h)
        platform = star_platform(p, bandwidth=1e12, latency=0.005)
        sim = MasterWorkerSimulation(
            params, ConstantWorkload(0.05), platform=platform,
            overhead_model=OverheadModel.SERIALIZED_MASTER,
        )
        result = sim.run(make_factory("ss"))
        # Master must serialise n scheduling ops of h each.
        assert result.makespan >= n * h
        # The wasted time reflects contention (far above the free case).
        free = MasterWorkerSimulation(
            params, ConstantWorkload(0.05)
        ).run(make_factory("ss"))
        assert result.makespan > free.makespan

    def test_adaptive_over_serialized_master(self):
        params = SchedulingParams(n=512, p=4, h=0.05)
        sim = MasterWorkerSimulation(
            params, ExponentialWorkload(1.0),
            overhead_model=OverheadModel.SERIALIZED_MASTER,
        )
        result = sim.run(make_factory("awf-c"), seed=2)
        assert result.total_task_time > 0
        assert result.extras["master_busy_time"] > 0


class TestHeterogeneousEndToEnd:
    def test_weighted_and_dynamic_reach_capacity_bound(self):
        """On a 4x-spread platform, WF (a-priori weights) and FAC2
        (dynamic rebalancing) both approach the capacity bound while
        STAT is dragged down by its equal shares."""
        from repro import weights_from_speeds

        speeds = [4.0, 1.0, 1.0, 1.0]
        p = len(speeds)
        platform = star_platform(
            p, worker_speed=speeds, bandwidth=1e12, latency=1e-9
        )
        bound = 2000 / sum(speeds)
        base = SchedulingParams(n=2000, p=p, h=0.0, mu=1.0, sigma=0.5)
        fac2 = MasterWorkerSimulation(
            base, ConstantWorkload(1.0), platform=platform
        ).run(make_factory("fac2"), seed=0)
        stat = MasterWorkerSimulation(
            base, ConstantWorkload(1.0), platform=platform
        ).run(make_factory("stat"), seed=0)
        wf_params = base.with_updates(weights=weights_from_speeds(speeds))
        wf = MasterWorkerSimulation(
            wf_params, ConstantWorkload(1.0), platform=platform
        ).run(make_factory("wf"), seed=0)
        assert wf.makespan < 1.05 * bound
        assert fac2.makespan < 1.05 * bound
        assert stat.makespan > 1.5 * bound  # slow PEs hold their 500

    def test_awf_timesteps_with_msg_backend(self):
        """Timestep AWF re-armed across MSG simulations learns weights."""
        speeds = [1.0, 3.0]
        platform = star_platform(
            2, worker_speed=speeds, bandwidth=1e12, latency=1e-9
        )
        params = SchedulingParams(n=400, p=2, h=0.0)
        scheduler = create("awf", params)
        makespans = []
        for step in range(4):
            if step > 0:
                scheduler.start_timestep()
            sim = MasterWorkerSimulation(
                params, ConstantWorkload(1.0), platform=platform
            )
            makespans.append(sim.run(scheduler, seed=step).makespan)
        # Learning pays: later steps are at least as fast as step 0.
        assert min(makespans[1:]) <= makespans[0] + 1e-9
        w = scheduler.current_weights()
        assert w[1] > w[0]


class TestTracesThroughBothSimulators:
    def test_same_trace_same_results(self):
        """A recorded trace replays identically on both simulators."""
        import numpy as np

        from repro.directsim import DirectSimulator
        from repro.workloads import TraceWorkload

        times = np.random.default_rng(3).lognormal(0, 0.5, 300)
        workload = TraceWorkload(times)
        params = SchedulingParams(
            n=300, p=4, h=0.0, mu=workload.mean, sigma=workload.std
        )
        direct = DirectSimulator(params, workload).run(
            make_factory("tss"), seed=0
        )
        msg = MasterWorkerSimulation(params, workload).run(
            make_factory("tss"), seed=99  # seed irrelevant for traces
        )
        assert msg.makespan == pytest.approx(direct.makespan, rel=1e-9)
        assert msg.total_task_time == pytest.approx(times.sum())


class TestPredictorOnIrregularRows:
    def test_recommendation_is_sane(self):
        import numpy as np

        from repro.core.prediction import recommend_technique
        from repro.workloads import TraceWorkload

        # 128 rows whose middle 48 cost 40x the rest, as the rows of a
        # Mandelbrot image crossing the set do
        rows = np.ones(128)
        rows[40:88] = 40.0
        workload = TraceWorkload(rows)
        params = SchedulingParams(
            n=128, p=8, h=1e-4, mu=workload.mean, sigma=workload.std,
        )
        best = recommend_technique(params)
        # The irregular rows rule out STAT; overhead rules out SS.
        assert best.technique not in ("STAT", "SS")
