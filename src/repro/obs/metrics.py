"""Low-overhead metrics registry: histograms, gauges, counters.

The registry answers aggregate questions about a campaign that neither
the per-run :class:`~repro.obs.stats.RunStats` nor the journal's task
records answer directly: how are chunk sizes distributed, how much time
do workers spend idle, how fast is the simulation moving overall.  Like
the run journal, metrics collection is *opt-in*: the campaign runner
records into the process-global registry only inside :func:`metrics_to`
(or between :func:`set_registry` and :func:`clear_registry`), so
disabled campaigns pay a single ``None`` check per runner call.  A
registry never leaves the parent process: the runner folds results into
it after pooled ones return (:func:`record_results`).

Exports: :meth:`MetricsRegistry.to_json` for machines,
:meth:`MetricsRegistry.render_prometheus` for the Prometheus
text-exposition format (``repro-dls figures --metrics FILE`` picks the
format from the file extension: ``.prom``/``.txt`` is Prometheus,
anything else JSON).
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    from ..results import RunResult

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "active_registry",
    "clear_registry",
    "metrics_to",
    "record_results",
    "set_registry",
]


def _bucket_exponent(value: float) -> int:
    """The power-of-two bucket index of ``value`` (le = 2**exponent).

    Values ``<= 0`` land in the dedicated zero bucket (exponent
    ``None`` is avoided by using a sentinel below the smallest
    representable exponent).
    """
    mantissa, exponent = math.frexp(value)
    if mantissa == 0.5:  # exact powers of two fit the smaller bucket
        exponent -= 1
    return exponent


#: bucket index for values <= 0 (below every float exponent)
_ZERO_BUCKET = -5000


class Histogram:
    """A power-of-two-bucketed histogram of non-negative observations.

    Buckets are geometric with upper bounds ``2**k`` — wide enough to
    span chunk sizes (1 .. n) and wall times (microseconds .. hours)
    with a handful of integer dict entries, which keeps ``observe`` to
    one ``frexp`` and one dict increment.  The exact ``sum``, ``count``,
    ``min`` and ``max`` are tracked alongside, so means are exact.
    """

    __slots__ = ("name", "help", "buckets", "count", "sum", "min", "max")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        """Record one observation."""
        exponent = _ZERO_BUCKET if value <= 0 else _bucket_exponent(value)
        buckets = self.buckets
        buckets[exponent] = buckets.get(exponent, 0) + 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def observe_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.observe(value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def bucket_bounds(self) -> list[tuple[float, int]]:
        """Sorted ``(upper bound, count)`` pairs (non-cumulative)."""
        out = []
        for exponent in sorted(self.buckets):
            le = 0.0 if exponent == _ZERO_BUCKET else float(2.0 ** exponent)
            out.append((le, self.buckets[exponent]))
        return out

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "help": self.help,
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
            "buckets": [
                {"le": le, "count": count}
                for le, count in self.bucket_bounds()
            ],
        }

    def format_ascii(self, width: int = 40) -> str:
        """The bucket distribution as terminal-friendly bars."""
        bounds = self.bucket_bounds()
        if not bounds:
            return "(no observations)"
        peak = max(count for _, count in bounds)
        lines = []
        for le, count in bounds:
            bar = "#" * max(1, round(count / peak * width))
            lines.append(f"  <= {le:<12g} {bar} {count}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.name} count={self.count}>"


class Gauge:
    """A last-value-wins metric (e.g. current events/second)."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def to_json(self) -> dict:
        return {"name": self.name, "help": self.help, "value": self.value}


class Counter:
    """A monotonically increasing total (e.g. simulated events)."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0.0

    def incr(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def to_json(self) -> dict:
        return {"name": self.name, "help": self.help, "value": self.value}


def _prometheus_value(value: float) -> str:
    """An integral value as an integer, any other at full precision.

    ``repr`` is the shortest string that reads back as the same float,
    so a large counter or a power-of-two bucket bound is never rounded.
    """
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _prometheus_name(name: str) -> str:
    """Sanitise to the Prometheus metric-name charset, prefixed."""
    cleaned = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    return f"repro_{cleaned}"


class MetricsRegistry:
    """Named histograms, gauges and counters with get-or-create access."""

    def __init__(self) -> None:
        self.histograms: dict[str, Histogram] = {}
        self.gauges: dict[str, Gauge] = {}
        self.counters: dict[str, Counter] = {}

    def histogram(self, name: str, help: str = "") -> Histogram:
        metric = self.histograms.get(name)
        if metric is None:
            metric = self.histograms[name] = Histogram(name, help)
        return metric

    def gauge(self, name: str, help: str = "") -> Gauge:
        metric = self.gauges.get(name)
        if metric is None:
            metric = self.gauges[name] = Gauge(name, help)
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        metric = self.counters.get(name)
        if metric is None:
            metric = self.counters[name] = Counter(name, help)
        return metric

    def to_json(self) -> dict:
        return {
            "histograms": {
                name: metric.to_json()
                for name, metric in sorted(self.histograms.items())
            },
            "gauges": {
                name: metric.to_json()
                for name, metric in sorted(self.gauges.items())
            },
            "counters": {
                name: metric.to_json()
                for name, metric in sorted(self.counters.items())
            },
        }

    def render_prometheus(self) -> str:
        """The registry in the Prometheus text-exposition format.

        Histograms emit cumulative ``_bucket{le=...}`` series ending in
        ``le="+Inf"`` plus ``_sum`` and ``_count``, exactly as a
        Prometheus client library would.  Values keep full precision
        (see :func:`_prometheus_value`).
        """
        lines: list[str] = []
        for name in sorted(self.counters):
            counter = self.counters[name]
            metric = _prometheus_name(name)
            if counter.help:
                lines.append(f"# HELP {metric} {counter.help}")
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {_prometheus_value(counter.value)}")
        for name in sorted(self.gauges):
            gauge = self.gauges[name]
            metric = _prometheus_name(name)
            if gauge.help:
                lines.append(f"# HELP {metric} {gauge.help}")
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_prometheus_value(gauge.value)}")
        for name in sorted(self.histograms):
            hist = self.histograms[name]
            metric = _prometheus_name(name)
            if hist.help:
                lines.append(f"# HELP {metric} {hist.help}")
            lines.append(f"# TYPE {metric} histogram")
            cumulative = 0
            for le, count in hist.bucket_bounds():
                cumulative += count
                lines.append(
                    f'{metric}_bucket{{le="{_prometheus_value(le)}"}} '
                    f"{cumulative}"
                )
            lines.append(f'{metric}_bucket{{le="+Inf"}} {hist.count}')
            lines.append(f"{metric}_sum {_prometheus_value(hist.sum)}")
            lines.append(f"{metric}_count {hist.count}")
        return "\n".join(lines) + "\n"

    def save(self, path: str | Path) -> None:
        """Write the registry to ``path``; the extension picks the format.

        ``.prom`` / ``.txt`` get the Prometheus text-exposition format,
        everything else JSON.
        """
        path = Path(path)
        if path.suffix in (".prom", ".txt"):
            path.write_text(self.render_prometheus())
        else:
            path.write_text(json.dumps(self.to_json(), indent=2) + "\n")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MetricsRegistry {len(self.histograms)} histogram(s), "
            f"{len(self.gauges)} gauge(s), {len(self.counters)} counter(s)>"
        )


# -- the active (campaign-scoped) registry --------------------------------
_ACTIVE: MetricsRegistry | None = None


def set_registry(registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Make ``registry`` (or a fresh one) the active metrics sink.

    For a set-up that outlives one block; :func:`clear_registry` undoes
    it.  Scoped callers use :func:`metrics_to`.
    """
    global _ACTIVE
    if registry is None:
        registry = MetricsRegistry()
    _ACTIVE = registry
    return registry


def active_registry() -> MetricsRegistry | None:
    """The registry the runner currently records into (None = off)."""
    return _ACTIVE


def clear_registry() -> None:
    """Deactivate the active registry (its metrics stay readable)."""
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def metrics_to(path: str | Path | None = None) -> Iterator[MetricsRegistry]:
    """Collect campaign metrics inside the block; save to ``path`` on exit.

    With ``path=None`` the registry is activated but not written — read
    it from the yielded object instead.  On exit the registry active
    before the block, if any, is active again.
    """
    global _ACTIVE
    registry = MetricsRegistry()
    outer, _ACTIVE = _ACTIVE, registry
    try:
        yield registry
    finally:
        _ACTIVE = outer
        if path is not None:
            registry.save(path)


def record_results(
    registry: MetricsRegistry,
    results: Sequence["RunResult"],
    new_fallbacks: int = 0,
) -> None:
    """Fold a batch of run results into the campaign metrics.

    Called by the runner once per ``run_campaign`` / ``run_replicated``
    call (in the parent process, after pooled results return), so the
    per-result cost is paid only while a registry is active.
    """
    makespans = registry.histogram(
        "run_makespan_seconds", "simulated makespan per run"
    )
    idle = registry.histogram(
        "worker_idle_seconds", "per-worker idle (wasted) time per run"
    )
    task_time = registry.histogram(
        "run_task_seconds", "total simulated task time per run"
    )
    chunk_size = registry.histogram(
        "chunk_size_tasks",
        "chunk sizes (per chunk when a log exists, mean size otherwise)",
    )
    runs = registry.counter("runs_total", "simulated runs recorded")
    events = registry.counter("sim_events_total", "kernel events processed")
    wall = registry.counter(
        "sim_wall_seconds_total", "host seconds spent simulating"
    )
    for result in results:
        makespans.observe(result.makespan)
        task_time.observe(result.total_task_time)
        for compute in result.compute_times:
            idle.observe(result.makespan - compute)
        if result.chunk_log:
            for execution in result.chunk_log:
                chunk_size.observe(execution.record.size)
        elif result.num_chunks:
            chunk_size.observe(result.n / result.num_chunks)
        events.incr(result.stats.events)
        wall.incr(result.stats.wall_time)
    runs.incr(len(results))
    perturbed = [r for r in results if "scenario" in r.extras]
    if perturbed:
        registry.counter(
            "perturbed_runs_total", "runs simulated under a scenario"
        ).incr(len(perturbed))
        registry.counter(
            "lost_chunks_total", "chunks lost to fail-stop faults"
        ).incr(sum(int(r.extras.get("lost_chunks", 0)) for r in perturbed))
        registry.counter(
            "lost_tasks_total", "tasks requeued after fail-stop faults"
        ).incr(sum(int(r.extras.get("lost_tasks", 0)) for r in perturbed))
    if new_fallbacks:
        registry.counter(
            "fallbacks_total", "capability fallbacks during resolution"
        ).incr(new_fallbacks)
    if wall.value > 0:
        registry.gauge(
            "sim_events_per_second", "cumulative simulation throughput"
        ).set(events.value / wall.value)
