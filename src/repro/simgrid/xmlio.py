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

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .platform import Host, Link, Platform

if TYPE_CHECKING:
    import xml.etree.ElementTree as ET

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
    import xml.etree.ElementTree as ET

    return platform_from_xml(ET.parse(Path(path)).getroot())


def loads_platform(text: str) -> Platform:
    """Parse a platform XML string."""
    import xml.etree.ElementTree as ET

    return platform_from_xml(ET.fromstring(text))


def platform_from_xml(root: ET.Element) -> Platform:
    """The platform of a ``<platform>`` element.

    Its name is the root's ``id`` if it has one, else the ``id`` of the
    only top-level ``<zone>`` (or ``<AS>``), where
    :func:`platform_to_xml` writes it, else ``platform``.
    """
    if root.tag != "platform":
        raise ValueError(f"expected <platform> root, got <{root.tag}>")
    zones = root.findall("zone") or root.findall("AS")
    name = root.get("id")
    if name is None and len(zones) == 1:
        name = zones[0].get("id")
    platform = Platform(name=name if name is not None else "platform")
    for zone in zones or [root]:
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
    """Serialise a :class:`Platform` back to platform-file XML.

    The text is what ElementTree writes for the same tree after
    ``ET.indent`` (``ET.tostring(..., encoding="unicode",
    xml_declaration=True)``), byte for byte, built as text so that
    writing a platform loads no XML library.  Hosts come in insertion
    order, then each link the first time a route uses it, then the
    routes sorted by ``(src, dst)``.  A route whose reverse is equal to
    it is written once, SimGrid's symmetric default; a route whose
    reverse is missing or different is written with
    ``symmetrical="no"``, and so is the reverse.

    The text enters derived seeds, cache keys and provenance hashes, so
    a platform computes it once: it is kept on the platform until
    ``add_host``, ``add_link`` or ``add_route`` changes it, and is not
    pickled.
    """
    xml = platform._xml
    if xml is None:
        xml = platform._xml = _platform_xml(platform)
    return xml


#: ElementTree's attribute escapes, in the order it applies them
_ATTRIBUTE_ESCAPES = (
    ("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"), ('"', "&quot;"),
    ("\r", "&#13;"), ("\n", "&#10;"), ("\t", "&#09;"),
)


def _attribute(text: str) -> str:
    """A name escaped as an attribute value (numbers never need it)."""
    for char, entity in _ATTRIBUTE_ESCAPES:
        if char in text:
            text = text.replace(char, entity)
    return text


def _platform_xml(platform: Platform) -> str:
    hosts = {}
    host_lines = []
    for host in platform.hosts:
        name = hosts[host.name] = _attribute(host.name)
        host_lines.append(
            f'    <host id="{name}" speed="{host.speed}f" '
            f'core="{host.cores}" />'
        )
    links: dict[str, str] = {}
    link_lines = []
    route_lines = []
    routes = platform._routes
    for (src, dst), route in sorted(routes.items()):
        reverse = routes.get((dst, src))
        symmetric = reverse == route
        if symmetric and dst < src:
            continue  # written as (dst, src)
        for link in route.links:
            if link.name not in links:
                links[link.name] = _attribute(link.name)
                link_lines.append(
                    f'    <link id="{links[link.name]}" '
                    f'bandwidth="{link.bandwidth}Bps" '
                    f'latency="{link.latency}s" />'
                )
        head = f'    <route src="{hosts[src]}" dst="{hosts[dst]}"'
        if not symmetric:
            head += ' symmetrical="no"'
        # a host reaches itself over the loopback (Platform.route),
        # whatever route is stored for it
        hops = route.links if src != dst else ()
        if hops:
            route_lines.append(head + ">")
            route_lines.extend(
                f'      <link_ctn id="{links[link.name]}" />'
                for link in hops
            )
            route_lines.append("    </route>")
        else:
            route_lines.append(head + " />")
    zone = f'  <zone id="{_attribute(platform.name)}" routing="Full"'
    body = host_lines + link_lines + route_lines
    zone_lines = ([zone + ">", *body, "  </zone>"] if body
                  else [zone + " />"])
    return "\n".join([
        "<?xml version='1.0' encoding='utf-8'?>",
        '<platform version="4.1">',
        *zone_lines,
        "</platform>",
    ])


@dataclass(frozen=True)
class ProcessPlacement:
    """One <process> entry of a deployment file."""

    host: str
    function: str
    arguments: tuple[str, ...] = ()


def load_deployment(path: str | Path) -> list[ProcessPlacement]:
    """Read a deployment XML file."""
    import xml.etree.ElementTree as ET

    return deployment_from_xml(ET.parse(Path(path)).getroot())


def loads_deployment(text: str) -> list[ProcessPlacement]:
    """Parse a deployment XML string."""
    import xml.etree.ElementTree as ET

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
    import xml.etree.ElementTree as ET

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
