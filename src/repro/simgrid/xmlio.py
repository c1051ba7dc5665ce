"""SimGrid-style platform and deployment XML files.

SimGrid describes the system in a *platform file* and the process mapping
in a *deployment file*.  This module reads and writes the subset of the
version-4 format the DLS experiments need::

    <?xml version='1.0'?>
    <platform version="4.1">
      <zone id="AS0" routing="Full">
        <host id="master" speed="1Gf"/>
        <host id="worker-0" speed="1Gf"/>
        <link id="link-0" bandwidth="125MBps" latency="50us"/>
        <route src="master" dst="worker-0"><link_ctn id="link-0"/></route>
      </zone>
    </platform>

    <?xml version='1.0'?>
    <deployment>
      <process host="master" function="master"/>
      <process host="worker-0" function="worker"><argument value="0"/></process>
    </deployment>

Unit suffixes follow SimGrid: speeds in ``f/Kf/Mf/Gf/Tf`` (flop/s),
bandwidths in ``Bps/KBps/MBps/GBps`` (bytes/s), latencies in
``s/ms/us/ns``.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

from .platform import Host, Link, Platform

_SPEED_UNITS = {"f": 1.0, "kf": 1e3, "mf": 1e6, "gf": 1e9, "tf": 1e12}
_BANDWIDTH_UNITS = {"bps": 1.0, "kbps": 1e3, "mbps": 1e6, "gbps": 1e9}
_TIME_UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9}


def _parse_with_units(text: str, units: dict[str, float], kind: str) -> float:
    """Parse ``"125MBps"``-style values into base units."""
    text = text.strip()
    lowered = text.lower()
    for suffix in sorted(units, key=len, reverse=True):
        if lowered.endswith(suffix):
            number = lowered[: -len(suffix)]
            try:
                return float(number) * units[suffix]
            except ValueError:
                raise ValueError(f"bad {kind} value {text!r}") from None
    try:
        return float(text)
    except ValueError:
        raise ValueError(
            f"bad {kind} value {text!r} (known units: {sorted(units)})"
        ) from None


def parse_speed(text: str) -> float:
    """Host speed string to flop/s."""
    return _parse_with_units(text, _SPEED_UNITS, "speed")


def parse_bandwidth(text: str) -> float:
    """Bandwidth string to bytes/s."""
    return _parse_with_units(text, _BANDWIDTH_UNITS, "bandwidth")


def parse_latency(text: str) -> float:
    """Latency string to seconds."""
    return _parse_with_units(text, _TIME_UNITS, "latency")


def load_platform(path: str | Path) -> Platform:
    """Read a platform XML file into a :class:`Platform`."""
    tree = ET.parse(Path(path))
    return platform_from_xml(tree.getroot())


def loads_platform(text: str) -> Platform:
    """Parse a platform XML string."""
    return platform_from_xml(ET.fromstring(text))


def platform_from_xml(root: ET.Element) -> Platform:
    if root.tag != "platform":
        raise ValueError(f"expected <platform> root, got <{root.tag}>")
    platform = Platform(name=root.get("id", "platform"))
    zones = root.findall("zone") or root.findall("AS") or [root]
    for zone in zones:
        for el in zone.findall("host"):
            platform.add_host(
                Host(
                    name=_require(el, "id"),
                    speed=parse_speed(_require(el, "speed")),
                    cores=int(el.get("core", "1")),
                )
            )
        for el in zone.findall("link"):
            platform.add_link(
                Link(
                    name=_require(el, "id"),
                    bandwidth=parse_bandwidth(_require(el, "bandwidth")),
                    latency=parse_latency(_require(el, "latency")),
                )
            )
        for el in zone.findall("route"):
            links = [
                platform.link(_require(ctn, "id"))
                for ctn in el.findall("link_ctn")
            ]
            symmetric = el.get("symmetrical", "yes").lower() in ("yes", "true")
            platform.add_route(
                _require(el, "src"), _require(el, "dst"), links, symmetric
            )
    return platform


def platform_to_xml(platform: Platform) -> str:
    """Serialise a :class:`Platform` back to platform-file XML."""
    root = ET.Element("platform", version="4.1")
    zone = ET.SubElement(root, "zone", id=platform.name, routing="Full")
    for host in platform.hosts:
        ET.SubElement(
            zone, "host", id=host.name, speed=f"{host.speed}f",
            core=str(host.cores),
        )
    seen_links: set[str] = set()
    routes = []
    emitted: set[tuple[str, str]] = set()
    for (src, dst), route in sorted(platform._routes.items()):
        if (dst, src) in emitted:
            continue
        routes.append((src, dst))
        emitted.add((src, dst))
        for link in route.links:
            if link.name not in seen_links:
                seen_links.add(link.name)
                ET.SubElement(
                    zone, "link", id=link.name,
                    bandwidth=f"{link.bandwidth}Bps",
                    latency=f"{link.latency}s",
                )
    for src, dst in routes:
        el = ET.SubElement(zone, "route", src=src, dst=dst)
        for link in platform.route(src, dst).links:
            ET.SubElement(el, "link_ctn", id=link.name)
    ET.indent(root)
    return ET.tostring(root, encoding="unicode", xml_declaration=True)


@dataclass(frozen=True)
class ProcessPlacement:
    """One <process> entry of a deployment file."""

    host: str
    function: str
    arguments: tuple[str, ...] = ()


def load_deployment(path: str | Path) -> list[ProcessPlacement]:
    """Read a deployment XML file."""
    tree = ET.parse(Path(path))
    return deployment_from_xml(tree.getroot())


def loads_deployment(text: str) -> list[ProcessPlacement]:
    """Parse a deployment XML string."""
    return deployment_from_xml(ET.fromstring(text))


def deployment_from_xml(root: ET.Element) -> list[ProcessPlacement]:
    if root.tag != "deployment":
        raise ValueError(f"expected <deployment> root, got <{root.tag}>")
    placements = []
    for el in root.findall("process"):
        args = tuple(
            _require(arg, "value") for arg in el.findall("argument")
        )
        placements.append(
            ProcessPlacement(
                host=_require(el, "host"),
                function=_require(el, "function"),
                arguments=args,
            )
        )
    return placements


def master_worker_deployment(p: int) -> list[ProcessPlacement]:
    """The canonical deployment: one master plus ``p`` workers."""
    out = [ProcessPlacement(host="master", function="master")]
    for i in range(p):
        out.append(
            ProcessPlacement(
                host=f"worker-{i}", function="worker", arguments=(str(i),)
            )
        )
    return out


def deployment_to_xml(placements: list[ProcessPlacement]) -> str:
    """Serialise placements to deployment-file XML."""
    root = ET.Element("deployment")
    for pl in placements:
        el = ET.SubElement(root, "process", host=pl.host, function=pl.function)
        for arg in pl.arguments:
            ET.SubElement(el, "argument", value=arg)
    ET.indent(root)
    return ET.tostring(root, encoding="unicode", xml_declaration=True)


def _require(el: ET.Element, attr: str) -> str:
    value = el.get(attr)
    if value is None:
        raise ValueError(f"<{el.tag}> missing required attribute {attr!r}")
    return value
