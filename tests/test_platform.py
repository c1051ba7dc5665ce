"""Tests for the platform model (hosts, links, routes, factories)."""

from __future__ import annotations

import pytest

from repro.simgrid.platform import (
    Host,
    Link,
    Platform,
    Route,
    fast_network_platform,
    star_platform,
)


class TestHost:
    def test_compute_time(self):
        assert Host("h", speed=4.0).compute_time(8.0) == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Host("h", speed=0.0)
        with pytest.raises(ValueError):
            Host("h", cores=0)
        with pytest.raises(ValueError):
            Host("h").compute_time(-1.0)


class TestLink:
    def test_transfer_time(self):
        link = Link("l", bandwidth=100.0, latency=0.5)
        assert link.transfer_time(50.0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Link("l", bandwidth=0.0, latency=0.1)
        with pytest.raises(ValueError):
            Link("l", bandwidth=1.0, latency=-0.1)
        with pytest.raises(ValueError):
            Link("l", bandwidth=1.0, latency=0.0).transfer_time(-1.0)


class TestRoute:
    def test_latencies_sum_bandwidth_bottlenecks(self):
        route = Route(
            links=(
                Link("a", bandwidth=100.0, latency=0.1),
                Link("b", bandwidth=10.0, latency=0.2),
            )
        )
        # 0.3 latency + 10 bytes / min(100, 10)
        assert route.transfer_time(10.0) == pytest.approx(1.3)

    def test_empty_route_is_free(self):
        assert Route(links=()).transfer_time(1e9) == 0.0


class TestPlatform:
    def test_duplicate_host_rejected(self):
        platform = Platform()
        platform.add_host(Host("a"))
        with pytest.raises(ValueError, match="duplicate"):
            platform.add_host(Host("a"))

    def test_duplicate_link_rejected(self):
        platform = Platform()
        platform.add_link(Link("l", 1.0, 0.0))
        with pytest.raises(ValueError, match="duplicate"):
            platform.add_link(Link("l", 1.0, 0.0))

    def test_unknown_host_raises(self):
        with pytest.raises(KeyError, match="unknown host"):
            Platform().host("nope")

    def test_route_symmetric_by_default(self):
        platform = Platform()
        platform.add_host(Host("a"))
        platform.add_host(Host("b"))
        link = platform.add_link(Link("l", 100.0, 0.1))
        platform.add_route("a", "b", [link])
        assert platform.transfer_time("b", "a", 0.0) == pytest.approx(0.1)

    def test_asymmetric_route(self):
        platform = Platform()
        platform.add_host(Host("a"))
        platform.add_host(Host("b"))
        link = platform.add_link(Link("l", 100.0, 0.1))
        platform.add_route("a", "b", [link], symmetric=False)
        with pytest.raises(KeyError, match="no route"):
            platform.route("b", "a")

    def test_loopback(self):
        platform = Platform()
        platform.add_host(Host("a"))
        assert platform.transfer_time("a", "a", 1e9) == 0.0

    def test_missing_route_raises(self):
        platform = Platform()
        platform.add_host(Host("a"))
        platform.add_host(Host("b"))
        with pytest.raises(KeyError, match="no route"):
            platform.route("a", "b")


class TestFactories:
    def test_star_platform_layout(self):
        platform = star_platform(4)
        assert platform.host("master")
        for i in range(4):
            assert platform.host(f"worker-{i}")
            assert platform.route("master", f"worker-{i}").links

    def test_star_heterogeneous_speeds(self):
        platform = star_platform(3, worker_speed=[1.0, 2.0, 4.0])
        assert platform.host("worker-2").speed == 4.0

    def test_star_speed_count_mismatch(self):
        with pytest.raises(ValueError, match="worker speeds"):
            star_platform(3, worker_speed=[1.0, 2.0])

    def test_star_needs_workers(self):
        with pytest.raises(ValueError):
            star_platform(0)

    def test_fast_network_is_effectively_free(self):
        platform = fast_network_platform(2)
        assert platform.transfer_time("master", "worker-0", 64.0) < 1e-9
