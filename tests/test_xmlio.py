"""Tests for the platform/deployment XML reader and writer."""

from __future__ import annotations

import hashlib
import pickle
import random
import xml.etree.ElementTree as ET

import pytest

from repro.cache import ResultCache
from repro.core.params import SchedulingParams
from repro.experiments.runner import RunTask
from repro.obs.provenance import platform_xml_hash
from repro.simgrid import xmlio
from repro.simgrid.platform import Host, Link, Platform, star_platform
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
from repro.workloads import ConstantWorkload

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

    @pytest.mark.parametrize("xml, name", [
        ('<platform id="root"><zone id="z" /></platform>', "root"),
        ('<platform><zone id="z" /></platform>', "z"),
        ('<platform><AS id="as" /></platform>', "as"),
        ('<platform><zone id="a" /><zone id="b" /></platform>', "platform"),
        ("<platform><zone /></platform>", "platform"),
    ], ids=["root", "zone", "AS", "two-zones", "no-id"])
    def test_platform_name(self, xml, name):
        assert loads_platform(xml).name == name

    def test_written_platform_reloads_under_its_own_name_and_keys(
        self, tmp_path
    ):
        """A reloaded platform gets the seeds and cache keys of the
        platform that wrote it."""
        original = star_platform(8)
        path = tmp_path / "platform.xml"
        path.write_text(platform_to_xml(original))
        back = load_platform(path)
        assert back.name == original.name == "star-8"
        assert platform_to_xml(back) == platform_to_xml(original)
        assert keys(back) == keys(original)

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


def elementtree_xml(platform: Platform) -> str:
    """The platform file as ElementTree writes it.

    The tree the text serialiser describes: hosts, then each link the
    first time a route uses it, then the routes sorted by (src, dst); a
    route whose reverse is equal is written once, any other route with
    ``symmetrical="no"``.
    """
    root = ET.Element("platform", version="4.1")
    zone = ET.SubElement(root, "zone", id=platform.name, routing="Full")
    for host in platform.hosts:
        ET.SubElement(zone, "host", id=host.name, speed=f"{host.speed}f",
                      core=str(host.cores))
    routes = platform._routes
    written, seen_links = {}, set()
    for (src, dst), route in sorted(routes.items()):
        symmetric = routes.get((dst, src)) == route
        if symmetric and (dst, src) in written:
            continue
        written[src, dst] = symmetric
        for link in route.links:
            if link.name not in seen_links:
                seen_links.add(link.name)
                ET.SubElement(zone, "link", id=link.name,
                              bandwidth=f"{link.bandwidth}Bps",
                              latency=f"{link.latency}s")
    for (src, dst), symmetric in written.items():
        attrs = {"src": src, "dst": dst}
        if not symmetric:
            attrs["symmetrical"] = "no"
        el = ET.SubElement(zone, "route", attrs)
        for link in platform.route(src, dst).links:
            ET.SubElement(el, "link_ctn", id=link.name)
    ET.indent(root)
    return ET.tostring(root, encoding="unicode", xml_declaration=True)


#: characters of random names: XML specials, whitespace ElementTree
#: escapes in attributes, and non-ASCII
NAME_CHARS = "ab-_0.&<>\"'\n\t\r \u00b5\u00e9"


def random_name(rng: random.Random) -> str:
    return "".join(rng.choice(NAME_CHARS) for _ in range(rng.randint(1, 6)))


def random_platform(rng: random.Random) -> Platform:
    """A star platform, or a hand-built one with arbitrary names and
    routes: symmetric, one-way, asymmetric pairs, self-routes and routes
    with no link; the zone may be empty."""
    if rng.random() < 0.3:
        p = rng.randint(1, 24)
        speeds = ([rng.choice((0.5, 1.0, 2.5)) for _ in range(p)]
                  if rng.random() < 0.5 else rng.uniform(0.1, 4.0))
        return star_platform(p, worker_speed=speeds,
                             bandwidth=rng.choice((1.25e8, 1e15, 3.3)),
                             latency=rng.choice((5e-5, 1e-12, 0.0)))
    platform = Platform(name=random_name(rng))
    hosts = []
    for _ in range(rng.randint(0, 6)):
        name = random_name(rng)
        if name not in platform.host_names:
            platform.add_host(Host(name, speed=rng.uniform(0.1, 1e9),
                                   cores=rng.randint(1, 4)))
            hosts.append(name)
    links = []
    for _ in range(rng.randint(0, 5)):
        name = random_name(rng)
        if name not in {link.name for link in links}:
            links.append(platform.add_link(Link(
                name, bandwidth=rng.uniform(1.0, 1e9),
                latency=rng.choice((0.0, rng.uniform(0.0, 1e-3))))))
    for _ in range(rng.randint(0, 8) if hosts else 0):
        hops = rng.sample(links, rng.randint(0, len(links)))
        platform.add_route(rng.choice(hosts), rng.choice(hosts), hops,
                           symmetric=rng.random() < 0.5)
    return platform


def pair(b_to_a: list[Link] | None = None, *,
         symmetric: bool = True) -> Platform:
    """Hosts a and b and an a->b route over a fast link, symmetric by
    default; ``b_to_a`` then replaces its reverse."""
    platform = Platform()
    platform.add_host(Host("a"))
    platform.add_host(Host("b"))
    fast = platform.add_link(Link("fast", bandwidth=1e8, latency=0.0))
    platform.add_route("a", "b", [fast], symmetric=symmetric)
    if b_to_a is not None:
        platform.add_route("b", "a", b_to_a, symmetric=False)
    return platform


def keys(platform: Platform) -> tuple[tuple[int, ...], str, str]:
    task = RunTask("gss", SchedulingParams(n=64, p=2),
                   ConstantWorkload(1.0), simulator="msg", platform=platform)
    cache = ResultCache("never-written")
    return (task.derived_entropy(), cache.task_key(task),
            cache.sweep_key(task, 3, 1))


class TestTextSerialiser:
    def test_equals_elementtree_on_random_platforms(self):
        rng = random.Random(2017)
        seen = {"star": 0, "special": 0, "newline or tab": 0,
                "empty zone": 0, "route without links": 0,
                "one-way": 0, "self-route": 0}
        for _ in range(400):
            platform = random_platform(rng)
            assert platform_to_xml(platform) == elementtree_xml(platform)
            routes = platform._routes
            names = [platform.name, *platform.host_names,
                     *(link.name for route in routes.values()
                       for link in route.links)]
            seen["star"] += platform.name.startswith("star-")
            seen["special"] += any(c in name for name in names
                                   for c in "&<>\"")
            seen["newline or tab"] += any(c in name for name in names
                                          for c in "\n\t")
            seen["empty zone"] += not platform.host_names
            seen["route without links"] += any(
                not route.links for route in routes.values())
            seen["one-way"] += any(
                routes.get((dst, src)) != route
                for (src, dst), route in routes.items())
            seen["self-route"] += any(src == dst for src, dst in routes)
        assert min(seen.values()) >= 10, seen

    @pytest.mark.parametrize("reverse", [
        None, [Link("slow", bandwidth=1e3, latency=1.0)], [],
    ], ids=["one-way", "slow-reverse", "empty-reverse"])
    def test_asymmetric_routes_round_trip(self, reverse):
        platform = (pair(symmetric=False) if reverse is None
                    else pair(reverse))
        text = platform_to_xml(platform)
        assert 'symmetrical="no"' in text
        back = loads_platform(text)
        assert platform_to_xml(back) == text
        for src, dst in (("a", "b"), ("b", "a")):
            if (src, dst) not in platform._routes:
                with pytest.raises(KeyError, match="no route"):
                    back.route(src, dst)
                continue
            assert back.route(src, dst) == platform.route(src, dst)
            assert back.transfer_time(src, dst, 1e6) == (
                platform.transfer_time(src, dst, 1e6))

    def test_asymmetric_routes_get_distinct_keys(self):
        """Two platforms that differ only in their b->a route."""
        slow = pair([Link("slow", bandwidth=1e3, latency=1.0)])
        fast = pair()
        assert slow.transfer_time("b", "a", 1e6) == pytest.approx(1001.0)
        assert fast.transfer_time("b", "a", 1e6) == pytest.approx(0.01)
        assert platform_to_xml(slow) != platform_to_xml(fast)
        assert platform_xml_hash(slow) != platform_xml_hash(fast)
        for a, b in zip(keys(slow), keys(fast)):
            assert a != b
        assert keys(pair(symmetric=False)) != keys(fast)

    def test_equal_reverse_route_is_written_once(self):
        """An explicit reverse equal to the forward route keeps the
        symmetric bytes (one route element, no attribute)."""
        link = Link("fast", bandwidth=1e8, latency=0.0)
        platform = pair([link])
        assert platform_to_xml(platform) == platform_to_xml(pair())
        assert platform_to_xml(platform).count("<route ") == 1


class TestPlatformMemo:
    @pytest.fixture
    def serialisations(self, monkeypatch):
        calls = []
        text = xmlio._platform_xml

        def counted(platform):
            calls.append(platform)
            return text(platform)

        monkeypatch.setattr(xmlio, "_platform_xml", counted)
        return calls

    def test_second_key_does_not_serialise_again(self, serialisations):
        platform = star_platform(16)
        first = keys(platform)
        assert len(serialisations) == 1
        assert keys(platform) == first
        assert platform_xml_hash(platform) == platform_xml_hash(
            star_platform(16))
        assert serialisations.count(platform) == 1

    @pytest.mark.parametrize("change", [
        lambda platform: platform.add_host(Host("extra", speed=2.0)),
        lambda platform: platform.add_route(
            "worker-0", "worker-1", [platform.link("link-2")]),
    ], ids=["add_host", "add_route"])
    def test_changed_platform_gets_a_fresh_platforms_key(self, change):
        platform = star_platform(3)
        before = keys(platform), platform_xml_hash(platform)
        change(platform)
        fresh = star_platform(3)
        change(fresh)
        after = keys(platform), platform_xml_hash(platform)
        assert after == (keys(fresh), platform_xml_hash(fresh))
        assert after != before

    def test_add_link_drops_the_text(self):
        """A link enters the text once a route uses it; the text is
        dropped already when the link is added."""
        platform = star_platform(2)
        platform_to_xml(platform)
        platform.add_link(Link("spare", 1e6, 1e-3))
        assert platform._xml is None

    def test_pickled_keyed_platform_is_no_larger(self):
        keyed = star_platform(256)
        keys(keyed)
        platform_xml_hash(keyed)
        assert keyed._xml is not None
        unkeyed = star_platform(256)
        blob = pickle.dumps(keyed)
        assert len(blob) <= len(pickle.dumps(unkeyed))
        back = pickle.loads(blob)
        assert back._xml is None
        assert keys(back) == keys(unkeyed)


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
