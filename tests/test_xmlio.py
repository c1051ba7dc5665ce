"""Tests for the platform/deployment XML reader and writer."""

from __future__ import annotations

import hashlib

import pytest

from repro.simgrid.platform import star_platform
from repro.simgrid.xmlio import (
    ProcessPlacement,
    deployment_to_xml,
    load_deployment,
    load_platform,
    loads_deployment,
    loads_platform,
    master_worker_deployment,
    parse_bandwidth,
    parse_latency,
    parse_speed,
    platform_to_xml,
)

PLATFORM_XML = """<?xml version='1.0'?>
<platform version="4.1">
  <zone id="AS0" routing="Full">
    <host id="master" speed="1Gf"/>
    <host id="worker-0" speed="500Mf" core="2"/>
    <link id="link-0" bandwidth="125MBps" latency="50us"/>
    <route src="master" dst="worker-0"><link_ctn id="link-0"/></route>
  </zone>
</platform>
"""

DEPLOYMENT_XML = """<?xml version='1.0'?>
<deployment>
  <process host="master" function="master"/>
  <process host="worker-0" function="worker"><argument value="0"/></process>
</deployment>
"""


class TestUnitParsing:
    def test_speeds(self):
        assert parse_speed("1Gf") == 1e9
        assert parse_speed("500Mf") == 5e8
        assert parse_speed("2.5Kf") == 2500.0
        assert parse_speed("100f") == 100.0
        assert parse_speed("42") == 42.0

    def test_bandwidths(self):
        assert parse_bandwidth("125MBps") == 1.25e8
        assert parse_bandwidth("1GBps") == 1e9
        assert parse_bandwidth("10Bps") == 10.0

    def test_latencies(self):
        assert parse_latency("50us") == pytest.approx(5e-5)
        assert parse_latency("1ms") == 1e-3
        assert parse_latency("2ns") == pytest.approx(2e-9)
        assert parse_latency("0.5s") == 0.5

    def test_case_insensitive(self):
        assert parse_speed("1gf") == 1e9

    def test_bad_value_raises(self):
        with pytest.raises(ValueError, match="speed"):
            parse_speed("fast")
        with pytest.raises(ValueError, match="bandwidth"):
            parse_bandwidth("xMBps")


class TestPlatformXml:
    def test_parse_platform(self):
        platform = loads_platform(PLATFORM_XML)
        assert platform.host("master").speed == 1e9
        worker = platform.host("worker-0")
        assert worker.speed == 5e8
        assert worker.cores == 2
        # transfer = 50us + 64/125MBps
        assert platform.transfer_time("master", "worker-0", 64.0) == (
            pytest.approx(5e-5 + 64 / 1.25e8)
        )

    def test_route_symmetric_default(self):
        platform = loads_platform(PLATFORM_XML)
        assert platform.route("worker-0", "master").links

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "platform.xml"
        path.write_text(PLATFORM_XML)
        platform = load_platform(path)
        assert "worker-0" in platform.host_names

    def test_wrong_root_rejected(self):
        with pytest.raises(ValueError, match="<platform>"):
            loads_platform("<bogus/>")

    def test_missing_attribute_rejected(self):
        xml = "<platform><zone><host id='x'/></zone></platform>"
        with pytest.raises(ValueError, match="speed"):
            loads_platform(xml)

    def test_roundtrip(self):
        original = star_platform(3, bandwidth=1e6, latency=1e-4)
        text = platform_to_xml(original)
        back = loads_platform(text)
        assert set(back.host_names) == set(original.host_names)
        for i in range(3):
            assert back.transfer_time("master", f"worker-{i}", 100.0) == (
                pytest.approx(
                    original.transfer_time("master", f"worker-{i}", 100.0)
                )
            )


    @pytest.mark.parametrize("p, sha256", [
        (8,
         "a60cc5fa4d3648572836eab25fc5859282fe5f1a2aa6dde5f76a8349747d9d1f"),
        (64,
         "fa4b902f177697738fd5a30988e6d6a252b9d59f307c9db2d0c8941e80ee43c7"),
        (256,
         "e9dd0c4bee9d85b2e501a0776a1e256b788f952d7263632580192fbc07ad3f6e"),
        (1024,
         "da40a55d8b0c95bd6b380ba31aa3d4edd930b8ed8bb6bca927f6c57c3092b4f1"),
    ])
    def test_star_platform_xml_is_pinned(self, p, sha256):
        """The XML of a star platform, whose hash enters derived seeds,
        cache keys and ``platform_xml_sha256``, does not move."""
        text = platform_to_xml(star_platform(p))
        assert hashlib.sha256(text.encode()).hexdigest() == sha256


class TestDeploymentXml:
    def test_parse_deployment(self):
        placements = loads_deployment(DEPLOYMENT_XML)
        assert placements[0] == ProcessPlacement("master", "master")
        assert placements[1] == ProcessPlacement(
            "worker-0", "worker", arguments=("0",)
        )

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "deploy.xml"
        path.write_text(DEPLOYMENT_XML)
        assert len(load_deployment(path)) == 2

    def test_wrong_root_rejected(self):
        with pytest.raises(ValueError, match="<deployment>"):
            loads_deployment("<platform/>")

    def test_master_worker_deployment(self):
        placements = master_worker_deployment(3)
        assert placements[0].function == "master"
        assert [p.host for p in placements[1:]] == [
            "worker-0", "worker-1", "worker-2",
        ]

    def test_roundtrip(self):
        placements = master_worker_deployment(2)
        text = deployment_to_xml(placements)
        assert loads_deployment(text) == placements
