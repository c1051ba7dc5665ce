"""Tests for the file-driven simulation runner (repro.simgrid.app)."""

from __future__ import annotations

import pytest

from repro.core.registry import get_technique
from repro.simgrid import (
    ApplicationConfig,
    deployment_to_xml,
    master_worker_deployment,
    platform_to_xml,
    run_from_files,
    simulation_from_files,
    split_deployment,
    star_platform,
)
from repro.metrics.wasted_time import OverheadModel
from repro.simgrid.xmlio import ProcessPlacement
from repro.workloads import ConstantWorkload, ExponentialWorkload


@pytest.fixture
def files(tmp_path):
    platform = star_platform(4, bandwidth=1e12, latency=1e-9)
    plat = tmp_path / "platform.xml"
    plat.write_text(platform_to_xml(platform))
    dep = tmp_path / "deployment.xml"
    dep.write_text(deployment_to_xml(master_worker_deployment(4)))
    return plat, dep


class TestSplitDeployment:
    def test_orders_workers_by_argument(self):
        placements = [
            ProcessPlacement("m", "master"),
            ProcessPlacement("hb", "worker", ("1",)),
            ProcessPlacement("ha", "worker", ("0",)),
        ]
        master, workers = split_deployment(placements)
        assert master == "m"
        assert workers == ["ha", "hb"]

    def test_falls_back_to_file_order(self):
        placements = [
            ProcessPlacement("m", "master"),
            ProcessPlacement("x", "worker"),
            ProcessPlacement("y", "worker"),
        ]
        _, workers = split_deployment(placements)
        assert workers == ["x", "y"]

    def test_requires_one_master(self):
        with pytest.raises(ValueError, match="exactly one master"):
            split_deployment([ProcessPlacement("x", "worker")])
        with pytest.raises(ValueError, match="exactly one master"):
            split_deployment([
                ProcessPlacement("a", "master"),
                ProcessPlacement("b", "master"),
                ProcessPlacement("x", "worker"),
            ])

    def test_requires_workers(self):
        with pytest.raises(ValueError, match="no workers"):
            split_deployment([ProcessPlacement("m", "master")])


class TestRunFromFiles:
    def test_end_to_end(self, files):
        plat, dep = files
        app = ApplicationConfig(
            technique="fac2", n=256, workload=ExponentialWorkload(1.0),
            h=0.1,
        )
        result = run_from_files(plat, dep, app, seed=1)
        assert result.p == 4
        assert result.n == 256
        assert result.total_task_time > 0

    def test_p_derived_from_deployment(self, files):
        plat, dep = files
        app = ApplicationConfig(
            technique="gss", n=64, workload=ConstantWorkload(1.0)
        )
        sim = simulation_from_files(plat, dep, app)
        assert sim.params.p == 4

    def test_simulation_options_passed_through(self, files):
        plat, dep = files
        app = ApplicationConfig(
            technique="gss", n=64, workload=ConstantWorkload(1.0), h=0.5
        )
        sim = simulation_from_files(
            plat, dep, app,
            record_chunks=True, overhead_model=OverheadModel.PER_WORKER,
        )
        assert sim.record_chunks
        assert sim.overhead_model is OverheadModel.PER_WORKER
        result = run_from_files(
            plat, dep, app, seed=0,
            record_chunks=True, overhead_model=OverheadModel.PER_WORKER,
        )
        assert result.overhead_model is OverheadModel.PER_WORKER
        assert len(result.chunk_log) == result.num_chunks > 0
        assert result == sim.run(get_technique("gss"), seed=0)

    def test_technique_kwargs_forwarded(self, files):
        plat, dep = files
        app = ApplicationConfig(
            technique="gss", n=64, workload=ConstantWorkload(1.0),
            technique_kwargs={"min_chunk": 8},
        )
        result = run_from_files(plat, dep, app, seed=0)
        assert result.num_chunks <= 64 // 8 + 1

    def test_params_derived_from_workload(self):
        app = ApplicationConfig(
            technique="fac", n=100, workload=ExponentialWorkload(2.0)
        )
        params = app.scheduling_params(4)
        assert params.mu == 2.0
        assert params.sigma == 2.0

    def test_custom_host_names(self, tmp_path):
        """Hosts can have arbitrary names; deployment maps them."""
        from repro.simgrid import Host, Link, Platform

        platform = Platform()
        platform.add_host(Host("frontend", speed=1.0))
        for name in ("node-a", "node-b"):
            platform.add_host(Host(name, speed=1.0))
            link = platform.add_link(
                Link(f"l-{name}", bandwidth=1e12, latency=1e-9)
            )
            platform.add_route("frontend", name, [link])
        plat = tmp_path / "p.xml"
        plat.write_text(platform_to_xml(platform))
        dep = tmp_path / "d.xml"
        dep.write_text(deployment_to_xml([
            ProcessPlacement("frontend", "master"),
            ProcessPlacement("node-a", "worker", ("0",)),
            ProcessPlacement("node-b", "worker", ("1",)),
        ]))
        app = ApplicationConfig(
            technique="fac2", n=64, workload=ConstantWorkload(1.0)
        )
        result = run_from_files(plat, dep, app, seed=0)
        assert result.p == 2
        assert result.total_task_time == pytest.approx(64.0)
