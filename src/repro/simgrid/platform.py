"""Platform model: hosts, links and routes (the SimGrid platform file).

Figure 2 of the paper lists the system information a DLS simulation needs:
hosts (speed, number of cores) and network (topology, bandwidth, latency).
This module models exactly that.

* A :class:`Host` computes ``flops`` of work in ``flops / speed`` seconds.
* A :class:`Link` transfers ``bytes`` in ``latency + bytes / bandwidth``
  seconds.
* A :class:`Route` is an ordered list of links between two hosts; its
  transfer time sums the latencies and is throttled by the slowest link
  (SimGrid's store-and-forward approximation for a single stream).

Factories build the platforms the experiments use: :func:`star_platform`
(master in the centre, as the MSG master-worker model of Figure 1) and
:func:`fast_network_platform` (the star with free communication).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Host:
    """A processing element: name, speed in flop/s, core count."""

    name: str
    speed: float = 1.0
    cores: int = 1

    def __post_init__(self) -> None:
        if self.speed <= 0:
            raise ValueError(f"host speed must be positive, got {self.speed}")
        if self.cores < 1:
            raise ValueError(f"host cores must be >= 1, got {self.cores}")

    def compute_time(self, flops: float) -> float:
        """Seconds to execute ``flops`` floating point operations."""
        if flops < 0:
            raise ValueError("flops must be >= 0")
        return flops / self.speed


@dataclass(frozen=True)
class Link:
    """A network link: bandwidth in bytes/s, latency in seconds."""

    name: str
    bandwidth: float
    latency: float

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.latency < 0:
            raise ValueError(f"latency must be >= 0, got {self.latency}")

    def transfer_time(self, size: float) -> float:
        """Seconds to push ``size`` bytes through this link alone."""
        if size < 0:
            raise ValueError("size must be >= 0")
        return self.latency + size / self.bandwidth


@dataclass(frozen=True)
class Route:
    """An ordered sequence of links between a host pair."""

    links: tuple[Link, ...]

    def transfer_time(self, size: float) -> float:
        """Sum of latencies plus the slowest link's serialisation time."""
        if not self.links:
            return 0.0
        latency = sum(link.latency for link in self.links)
        bottleneck = min(link.bandwidth for link in self.links)
        return latency + size / bottleneck


class Platform:
    """A set of hosts plus routing between them.

    A platform keeps its XML serialisation
    (:func:`~repro.simgrid.xmlio.platform_to_xml`) once computed, drops
    it when ``add_host``, ``add_link`` or ``add_route`` changes the
    platform, and does not pickle it.
    """

    def __init__(self, name: str = "platform"):
        self.name = name
        self._hosts: dict[str, Host] = {}
        self._links: dict[str, Link] = {}
        self._routes: dict[tuple[str, str], Route] = {}
        self._loopback = Route(links=())
        self._xml: str | None = None

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_xml": None}

    # -- construction -----------------------------------------------------
    def add_host(self, host: Host) -> Host:
        if host.name in self._hosts:
            raise ValueError(f"duplicate host {host.name!r}")
        self._hosts[host.name] = host
        self._xml = None
        return host

    def add_link(self, link: Link) -> Link:
        if link.name in self._links:
            raise ValueError(f"duplicate link {link.name!r}")
        self._links[link.name] = link
        self._xml = None
        return link

    def add_route(self, src: str, dst: str, links: list[Link],
                  symmetric: bool = True) -> None:
        self._require_host(src)
        self._require_host(dst)
        route = Route(links=tuple(links))
        self._routes[(src, dst)] = route
        if symmetric:
            self._routes[(dst, src)] = route
        self._xml = None

    # -- queries ------------------------------------------------------------
    def host(self, name: str) -> Host:
        return self._require_host(name)

    def link(self, name: str) -> Link:
        try:
            return self._links[name]
        except KeyError:
            raise KeyError(f"unknown link {name!r}") from None

    @property
    def hosts(self) -> list[Host]:
        return list(self._hosts.values())

    @property
    def host_names(self) -> list[str]:
        return list(self._hosts)

    def route(self, src: str, dst: str) -> Route:
        """The route between two hosts (loopback when src == dst)."""
        self._require_host(src)
        self._require_host(dst)
        if src == dst:
            return self._loopback
        try:
            return self._routes[(src, dst)]
        except KeyError:
            raise KeyError(f"no route from {src!r} to {dst!r}") from None

    def transfer_time(self, src: str, dst: str, size: float) -> float:
        """Seconds to send ``size`` bytes from ``src`` to ``dst``."""
        return self.route(src, dst).transfer_time(size)

    def _require_host(self, name: str) -> Host:
        try:
            return self._hosts[name]
        except KeyError:
            raise KeyError(f"unknown host {name!r}") from None


def star_platform(
    workers: int,
    master_speed: float = 1.0,
    worker_speed: float | list[float] = 1.0,
    bandwidth: float = 1.25e8,
    latency: float = 5e-5,
) -> Platform:
    """Master-worker star: one link per worker to the master.

    ``worker_speed`` may be a scalar (homogeneous) or one value per
    worker (heterogeneous — the WF/AWF scenario).
    """
    if workers < 1:
        raise ValueError("need at least one worker")
    if isinstance(worker_speed, (int, float)):
        speeds = [float(worker_speed)] * workers
    else:
        speeds = list(map(float, worker_speed))
        if len(speeds) != workers:
            raise ValueError(
                f"need {workers} worker speeds, got {len(speeds)}"
            )
    platform = Platform(name=f"star-{workers}")
    platform.add_host(Host("master", speed=master_speed))
    for i in range(workers):
        host = platform.add_host(Host(f"worker-{i}", speed=speeds[i]))
        link = platform.add_link(
            Link(f"link-{i}", bandwidth=bandwidth, latency=latency)
        )
        platform.add_route("master", host.name, [link])
    return platform


def fast_network_platform(workers: int,
                          speed: float | list[float] = 1.0) -> Platform:
    """The BOLD-reproduction platform: communication is effectively free.

    Section III-B: "the network parameters bandwidth [set] to a very high
    value and the latency to a very low value.  This simulates no costs
    for communication."
    """
    return star_platform(
        workers,
        worker_speed=speed,
        bandwidth=1e15,
        latency=1e-12,
    )
