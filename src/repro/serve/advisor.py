"""The SimAS online scheduling advisor (request model + ranking core).

The paper's headline claim — DLS technique choice is workload- and
system-dependent — is only actionable if something *selects* the
technique online.  The SimAS approach (arXiv:1912.02050) does exactly
that: simulate every candidate technique under the observed system
state and pick the winner.  This module is that selection loop built on
the repository's existing layers:

* a query is a workload/platform/scenario description, validated into
  an :class:`AdviseRequest`;
* every candidate technique becomes one :class:`~repro.experiments.
  runner.RunTask` replication sweep, executed through
  :func:`~repro.experiments.runner.run_replicated_batch` — capability
  dispatch via :func:`repro.backends.resolve_backend` (fallback events
  are part of the answer), pooled :class:`~repro.backends.
  ReplicationBlock` execution, and the PR-6 result cache absorbing
  repeat queries;
* the ranking reports each technique's makespan mean with a 95% CI
  (:func:`repro.metrics.summary.summarize`), the backend that actually
  ran, and the degradations of the queried cells themselves
  (:func:`repro.backends.walk_fallbacks`).

Passing a scenario name re-ranks the candidates *under perturbation* —
the SiL re-selection use case (arXiv:1807.03577): the same cell can
prefer a different technique once the machine degrades, and the advisor
shows exactly that.

Concurrent queries are grouped by a leader/follower batcher
(:class:`SweepBatcher`): the first thread to reach the simulation stage
drains every queued query and dispatches the union of their cache
misses as *one* pooled fan-out, amortising pool dispatch across
requests (identical concurrent sweeps are simulated once).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

from ..backends import (
    BackendResolutionError,
    backend_names,
    resolve_backend,
    walk_fallbacks,
)
from ..cache import active_cache
from ..core.params import SchedulingParams
from ..core.registry import technique_names
from ..experiments.runner import RunTask, run_replicated_batch
from ..metrics.summary import summarize
from ..obs import metrics as obs_metrics
from ..obs.journal import active_journal
from ..workloads import WORKLOAD_DISTS, workload_from_spec

if TYPE_CHECKING:
    from ..results import RunResult
    from ..scenarios import Scenario

__all__ = [
    "AdviseRequest",
    "AdviseResponse",
    "AdviseValidationError",
    "Advisor",
    "RankedTechnique",
    "SweepBatcher",
]

#: replications per candidate technique when the query does not say
DEFAULT_RUNS = 5
#: backend candidate sweeps request when the query does not say
DEFAULT_SIMULATOR = "direct-batch"
#: hard per-query replication ceiling — the advisor is a service, and a
#: single query must not be able to occupy the box for minutes
MAX_RUNS = 1024
#: hard per-query ceiling on ``runs`` × ``n``, the tasks one candidate
#: sweep simulates, for the same reason: SS walks one chunk per task.
#: It admits the paper's largest cell, n = 524,288, at up to 32 runs.
MAX_RUNS_TIMES_N = 1 << 24
#: hard per-query ceiling on ``runs`` × ``p``: every kernel holds
#: p-sized state per replication, and a query's results hold ``runs`` ×
#: ``p`` compute times per technique.  It admits the paper's largest
#: p, 1,024, at ``MAX_RUNS``.
MAX_RUNS_TIMES_P = 1 << 20


class AdviseValidationError(ValueError):
    """A query that cannot be served, with a machine-readable shape.

    ``field`` names the offending request key; ``message`` mirrors the
    CLI error style (it names the unknown value and lists what *is*
    registered), so a 4xx body is as actionable as a CLI stderr line.
    """

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field
        self.message = message

    def to_json(self) -> dict:
        return {
            "error": "validation",
            "field": self.field,
            "message": self.message,
        }


def _require_int(payload: dict, key: str, *, minimum: int,
                 maximum: int | None = None,
                 default: int | None = None) -> int:
    value = payload.get(key, default)
    if value is None:
        raise AdviseValidationError(key, f"{key!r} is required")
    if isinstance(value, bool) or not isinstance(value, int):
        raise AdviseValidationError(
            key, f"{key!r} must be an integer, got {value!r}"
        )
    if value < minimum:
        raise AdviseValidationError(
            key, f"{key!r} must be >= {minimum}, got {value}"
        )
    if maximum is not None and value > maximum:
        raise AdviseValidationError(
            key, f"{key!r} must be <= {maximum}, got {value}"
        )
    return value


def _optional_float(payload: dict, key: str, default: float,
                    *, minimum: float | None = None,
                    positive: bool = False) -> float:
    value = payload.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise AdviseValidationError(
            key, f"{key!r} must be a number, got {value!r}"
        )
    value = float(value)
    if positive and value <= 0:
        raise AdviseValidationError(
            key, f"{key!r} must be > 0, got {value}"
        )
    if minimum is not None and value < minimum:
        raise AdviseValidationError(
            key, f"{key!r} must be >= {minimum}, got {value}"
        )
    return value


#: request keys :meth:`AdviseRequest.from_json` understands
_KNOWN_KEYS = frozenset({
    "n", "p", "h", "dist", "mean", "runs", "seed", "simulator",
    "scenario", "techniques", "top", "platform",
})


@dataclass(frozen=True)
class AdviseRequest:
    """One validated advisor query.

    Built from a JSON payload by :meth:`from_json`, which raises
    :class:`AdviseValidationError` (the HTTP layer's structured 4xx) on
    anything malformed — unknown technique/scenario/backend names are
    rejected with the registered alternatives listed, mirroring the CLI.
    """

    params: SchedulingParams
    dist: str
    mean: float
    runs: int
    seed: int
    simulator: str
    scenario: "Scenario | None" = None
    techniques: tuple[str, ...] = ()
    top: int | None = None
    platform_spec: tuple[tuple[str, float], ...] | None = None

    @classmethod
    def from_json(
        cls,
        payload: object,
        *,
        default_runs: int = DEFAULT_RUNS,
        default_simulator: str = DEFAULT_SIMULATOR,
    ) -> "AdviseRequest":
        if not isinstance(payload, dict):
            raise AdviseValidationError(
                "", "the request body must be a JSON object"
            )
        unknown = sorted(set(payload) - _KNOWN_KEYS)
        if unknown:
            raise AdviseValidationError(
                unknown[0],
                f"unknown request key(s) {', '.join(map(repr, unknown))}; "
                f"understood: {', '.join(sorted(_KNOWN_KEYS))}",
            )
        n = _require_int(payload, "n", minimum=1, maximum=MAX_RUNS_TIMES_N)
        p = _require_int(payload, "p", minimum=1, maximum=MAX_RUNS_TIMES_P)
        h = _optional_float(payload, "h", 0.0, minimum=0.0)
        mean = _optional_float(payload, "mean", 1.0, positive=True)
        dist = payload.get("dist", "exponential")
        if dist not in WORKLOAD_DISTS:
            raise AdviseValidationError(
                "dist",
                f"unknown workload distribution {dist!r}; choose one of "
                f"{', '.join(WORKLOAD_DISTS)}",
            )
        runs = _require_int(
            payload, "runs", minimum=1, maximum=MAX_RUNS,
            default=default_runs,
        )
        if runs * n > MAX_RUNS_TIMES_N:
            raise AdviseValidationError(
                "runs",
                f"'runs' x 'n' must be <= {MAX_RUNS_TIMES_N}, got {runs} x "
                f"{n}; at n = {n} ask for at most "
                f"{MAX_RUNS_TIMES_N // n} runs",
            )
        if runs * p > MAX_RUNS_TIMES_P:
            raise AdviseValidationError(
                "runs",
                f"'runs' x 'p' must be <= {MAX_RUNS_TIMES_P}, got {runs} x "
                f"{p}; at p = {p} ask for at most "
                f"{MAX_RUNS_TIMES_P // p} runs",
            )
        seed = _require_int(payload, "seed", minimum=0, default=0)
        simulator = payload.get("simulator", default_simulator)
        if not isinstance(simulator, str) or (
            simulator.lower() not in backend_names()
        ):
            raise AdviseValidationError(
                "simulator",
                f"unknown simulation backend {simulator!r}; registered: "
                f"{', '.join(backend_names())}",
            )
        scenario = cls._scenario_from(payload.get("scenario"))
        techniques = cls._techniques_from(payload.get("techniques"))
        top = payload.get("top")
        if top is not None:
            top = _require_int(payload, "top", minimum=1)
        platform_spec = cls._platform_from(payload.get("platform"))
        params = SchedulingParams(
            n=n, p=p, h=h, mu=mean, sigma=mean,
        )
        return cls(
            params=params, dist=dist, mean=mean, runs=runs, seed=seed,
            simulator=simulator.lower(), scenario=scenario,
            techniques=techniques, top=top, platform_spec=platform_spec,
        )

    @staticmethod
    def _scenario_from(value: object) -> "Scenario | None":
        if value is None:
            return None
        from ..scenarios import PRESETS

        # Only registered preset *names* are accepted over the wire —
        # never file paths (the CLI's file form would let a remote
        # client probe the server's filesystem).
        if not isinstance(value, str) or value not in PRESETS:
            raise AdviseValidationError(
                "scenario",
                f"unknown scenario preset {value!r}; registered presets: "
                f"{', '.join(PRESETS)}",
            )
        return PRESETS[value]

    @staticmethod
    def _techniques_from(value: object) -> tuple[str, ...]:
        registered = technique_names()
        if value is None:
            return tuple(registered)
        if not isinstance(value, (list, tuple)) or not value:
            raise AdviseValidationError(
                "techniques",
                "'techniques' must be a non-empty list of technique names",
            )
        out = []
        for name in value:
            key = name.lower() if isinstance(name, str) else name
            if key not in registered:
                raise AdviseValidationError(
                    "techniques",
                    f"unknown technique {name!r}; registered: "
                    f"{', '.join(registered)}",
                )
            out.append(key)
        return tuple(dict.fromkeys(out))  # dedupe, keep order

    @staticmethod
    def _platform_from(
        value: object,
    ) -> tuple[tuple[str, float], ...] | None:
        if value is None:
            return None
        if not isinstance(value, dict):
            raise AdviseValidationError(
                "platform",
                "'platform' must be an object like "
                '{"worker_speed": 2.0, "latency": 5e-05, '
                '"bandwidth": 1.25e8}',
            )
        allowed = ("worker_speed", "master_speed", "bandwidth", "latency")
        spec = []
        for key, raw in sorted(value.items()):
            if key not in allowed:
                raise AdviseValidationError(
                    "platform",
                    f"unknown platform key {key!r}; understood: "
                    f"{', '.join(allowed)}",
                )
            if isinstance(raw, bool) or not isinstance(raw, (int, float)):
                raise AdviseValidationError(
                    "platform",
                    f"platform {key!r} must be a number, got {raw!r}",
                )
            if raw <= 0:
                raise AdviseValidationError(
                    "platform", f"platform {key!r} must be > 0, got {raw}"
                )
            spec.append((key, float(raw)))
        return tuple(spec)

    # -- task construction -------------------------------------------------
    def workload(self):
        return workload_from_spec(self.dist, self.mean)

    def platform(self):
        """The star platform the spec describes (None without one)."""
        if self.platform_spec is None:
            return None
        from ..simgrid.platform import star_platform

        return star_platform(workers=self.params.p,
                             **dict(self.platform_spec))

    def tasks(self) -> list[RunTask]:
        """One candidate :class:`RunTask` per requested technique.

        The tasks are built once per request and share one workload and
        one platform, so validation, keys and provenance serialise the
        platform once.
        """
        return list(self._tasks)

    @cached_property
    def _tasks(self) -> tuple[RunTask, ...]:
        workload = self.workload()
        platform = self.platform()
        return tuple(
            RunTask(
                technique=technique,
                params=self.params,
                workload=workload,
                simulator=self.simulator,
                platform=platform,
                scenario=self.scenario,
            )
            for technique in self.techniques
        )

    def describe(self) -> dict:
        """The query's identity block (journal records, responses)."""
        return {
            "n": self.params.n,
            "p": self.params.p,
            "h": self.params.h,
            "dist": self.dist,
            "mean": self.mean,
            "runs": self.runs,
            "seed": self.seed,
            "simulator": self.simulator,
            "scenario": self.scenario.name if self.scenario else None,
        }


@dataclass(frozen=True)
class RankedTechnique:
    """One technique's simulated outcome on the queried cell."""

    rank: int
    technique: str
    makespan_mean: float
    makespan_ci: tuple[float, float]
    makespan_std: float
    speedup_mean: float
    backend: str
    runs: int

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "technique": self.technique,
            "makespan_mean": self.makespan_mean,
            "makespan_ci": list(self.makespan_ci),
            "makespan_std": self.makespan_std,
            "speedup_mean": self.speedup_mean,
            "backend": self.backend,
            "runs": self.runs,
        }


@dataclass
class AdviseResponse:
    """One advisor answer: the ranking plus its provenance."""

    request: AdviseRequest
    ranking: list[RankedTechnique]
    fallbacks: list[dict]
    cache_hits: int
    cache_misses: int
    elapsed_s: float

    @property
    def best(self) -> str:
        return self.ranking[0].technique

    def to_json(self) -> dict:
        ranking = self.ranking
        if self.request.top is not None:
            ranking = ranking[: self.request.top]
        return {
            "best": self.best,
            "ranking": [row.to_json() for row in ranking],
            "techniques_ranked": len(self.ranking),
            "fallbacks": self.fallbacks,
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
            },
            "elapsed_ms": round(self.elapsed_s * 1000.0, 3),
            **self.request.describe(),
        }


@dataclass
class _PendingBatch:
    """One thread's sweeps awaiting the next batched dispatch."""

    sweeps: list[tuple[RunTask, int, int | None]]
    done: threading.Event = field(default_factory=threading.Event)
    results: list[list["RunResult"]] | None = None
    error: BaseException | None = None


class SweepBatcher:
    """Leader/follower batching of sweep execution across threads.

    Every thread enqueues its sweeps; the first thread to arrive while
    no dispatch is running becomes the *leader* and repeatedly drains
    the queue — including submissions that arrive while a dispatch is
    in flight — executing each drained batch as one
    :func:`run_replicated_batch` call over the shared process pool.
    Identical sweeps submitted by concurrent queries are executed once
    and fanned back to every submitter.

    This is the serve path's answer to "N concurrent advisor queries
    must share one pool": only one thread at a time talks to the pool,
    and it does so on behalf of everyone waiting.
    """

    def __init__(self, processes: int | None = None):
        self.processes = processes
        self._lock = threading.Lock()
        self._pending: list[_PendingBatch] = []
        self._dispatching = False

    def execute(
        self, sweeps: Sequence[tuple[RunTask, int, int | None]]
    ) -> list[list["RunResult"]]:
        pending = _PendingBatch(list(sweeps))
        with self._lock:
            self._pending.append(pending)
            leader = not self._dispatching
            if leader:
                self._dispatching = True
        if leader:
            while True:
                with self._lock:
                    batch = self._pending
                    self._pending = []
                    if not batch:
                        self._dispatching = False
                        break
                self._dispatch(batch)
        pending.done.wait()
        if pending.error is not None:
            raise pending.error
        assert pending.results is not None
        return pending.results

    def _dispatch(self, batch: list[_PendingBatch]) -> None:
        # Deduplicate identical sweeps across the batch: concurrent
        # queries for the same cell simulate it once.  RunTask is a
        # frozen dataclass, so equality is structural.
        unique: list[tuple[RunTask, int, int | None]] = []
        slots: list[list[int]] = []  # per pending: unique-index per sweep
        for pending in batch:
            indices = []
            for sweep in pending.sweeps:
                try:
                    indices.append(unique.index(sweep))
                except ValueError:
                    unique.append(sweep)
                    indices.append(len(unique) - 1)
            slots.append(indices)
        registry = obs_metrics.active_registry()
        if registry is not None:
            registry.histogram(
                "serve_sweeps_per_dispatch",
                "unique sweeps per batched pool dispatch",
            ).observe(len(unique))
            if len(batch) > 1:
                registry.counter(
                    "serve_batched_requests_total",
                    "advisor queries that shared a pooled dispatch",
                ).incr(len(batch))
        try:
            results = run_replicated_batch(
                unique, processes=self.processes, label="advise"
            )
        except BaseException as exc:
            for pending in batch:
                pending.error = exc
                pending.done.set()
            return
        for pending, indices in zip(batch, slots):
            pending.results = [results[i] for i in indices]
            pending.done.set()


class Advisor:
    """The ranking engine behind ``repro-dls serve``.

    Thread-safe: HTTP handler threads call :meth:`advise` concurrently
    and the embedded :class:`SweepBatcher` funnels all simulation into
    single batched dispatches over the one shared process pool.
    """

    def __init__(
        self,
        processes: int | None = None,
        default_runs: int = DEFAULT_RUNS,
        default_simulator: str = DEFAULT_SIMULATOR,
    ):
        self.default_runs = default_runs
        self.default_simulator = default_simulator
        self._batcher = SweepBatcher(processes=processes)
        self._journal_lock = threading.Lock()

    def parse(self, payload: object) -> AdviseRequest:
        request = AdviseRequest.from_json(
            payload,
            default_runs=self.default_runs,
            default_simulator=self.default_simulator,
        )
        # Fail fast — and with a 4xx, not a 500 — when no backend in
        # the fallback chain can serve the described system at all
        # (e.g. a platform description on the direct family).
        try:
            for task in request.tasks():
                resolve_backend(task)
        except BackendResolutionError as exc:
            raise AdviseValidationError("simulator", str(exc)) from None
        return request

    def advise(self, request: AdviseRequest) -> AdviseResponse:
        t0 = time.perf_counter()
        cache = active_cache()
        hits_before = cache.stats.hits if cache is not None else 0
        misses_before = cache.stats.misses if cache is not None else 0
        tasks = request.tasks()
        sweeps = [(task, request.runs, request.seed) for task in tasks]
        groups = self._batcher.execute(sweeps)
        ranking = self._rank(tasks, groups, request.runs)
        # each task's own hops: a perturbed or msg-fast cell with the
        # same technique(n, p) must not lend this answer its fallbacks
        fallbacks = [
            event.to_json()
            for task in tasks
            for event in walk_fallbacks(task)[1]
        ]
        elapsed = time.perf_counter() - t0
        cache_hits = (cache.stats.hits - hits_before) if cache else 0
        cache_misses = (
            (cache.stats.misses - misses_before) if cache else 0
        )
        response = AdviseResponse(
            request=request,
            ranking=ranking,
            fallbacks=fallbacks,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            elapsed_s=elapsed,
        )
        self._observe(response)
        return response

    @staticmethod
    def _rank(
        tasks: Sequence[RunTask],
        groups: Sequence[Sequence["RunResult"]],
        runs: int,
    ) -> list[RankedTechnique]:
        rows = []
        for task, results in zip(tasks, groups):
            makespans = summarize([r.makespan for r in results])
            speedups = summarize([r.speedup for r in results])
            rows.append((task.technique, makespans, speedups,
                         results[0].stats.backend))
        rows.sort(key=lambda row: (row[1].mean, row[0]))
        return [
            RankedTechnique(
                rank=i,
                technique=technique,
                makespan_mean=makespans.mean,
                makespan_ci=makespans.confidence_interval(),
                makespan_std=makespans.std,
                speedup_mean=speedups.mean,
                backend=backend,
                runs=runs,
            )
            for i, (technique, makespans, speedups, backend) in enumerate(
                rows, start=1
            )
        ]

    def _observe(self, response: AdviseResponse) -> None:
        """One journal ``advise`` record + serve metrics per query."""
        registry = obs_metrics.active_registry()
        if registry is not None:
            registry.counter(
                "serve_requests_total", "advisor queries answered"
            ).incr(1)
            registry.histogram(
                "serve_request_seconds", "advisor query latency"
            ).observe(response.elapsed_s)
            cache = active_cache()
            if cache is not None and cache.stats.lookups:
                registry.gauge(
                    "serve_cache_hit_rate",
                    "lifetime result-cache hit rate of this server",
                ).set(cache.stats.hit_rate)
        journal = active_journal()
        if journal is not None:
            record = {
                "kind": "advise",
                "best": response.best,
                "techniques": len(response.ranking),
                "fallbacks": len(response.fallbacks),
                "cache_hits": response.cache_hits,
                "cache_misses": response.cache_misses,
                "elapsed_s": round(response.elapsed_s, 6),
                **response.request.describe(),
            }
            with self._journal_lock:
                journal.write(record)
