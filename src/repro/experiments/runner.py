"""Replication campaign runner.

A campaign is a set of independent simulation runs (technique x parameters
x replication).  Runs are described by picklable :class:`RunTask` objects
so campaigns can be distributed over processes with
:mod:`multiprocessing` — the role the HPC cluster *taurus* played for the
original measurement campaign ("the individual measurements were
performed in parallel", Section V).  On a single-core machine the runner
degrades to a sequential loop.

Which simulator executes a task is *not* decided here: every task names a
registered backend (:mod:`repro.backends`), and dispatch resolves it
through the capability-checked fallback chain —
``resolve_backend(task)`` returns the backend that will actually run,
recording a :class:`~repro.backends.FallbackEvent` for every explicit
degradation (e.g. ``direct-batch`` -> ``direct`` for an adaptive
technique).  The figures pipeline and the CLI drain and surface those
events.

``RunTask.execute``, :func:`run_campaign`, :func:`run_replicated` and
:func:`run_replicated_batch` are thin wrappers over one executor,
:func:`_execute_sweeps`: a campaign task is a sweep of one run under its
own seed, a replication sweep is ``runs`` spawned replications, and both
go through the same lookup, resolution, execution, store, metrics and
journal steps.

A sweep is resolved once, in the parent process, and cut into
:class:`~repro.backends.ReplicationBlock` objects, the one thing the
executor runs: a campaign task is a block of one seed, and a replication
sweep is cut into blocks of the resolved backend's ``block_runs`` (one
run on ``msg`` and ``direct``; 64 on the fast paths, which amortise the
chunk-schedule precomputation over a block and, on the batch kernel,
step its replications together).  Each block runs through its backend's
``run_seeds``.  Blocks fan out over a persistent worker pool (created
once, reused across calls) via ``imap_unordered`` with a tuned
chunksize.  The pool size defaults to ``os.cpu_count()`` and can be
overridden with the ``REPRO_WORKERS`` environment variable or the
``processes`` argument (CLI: ``REPRO_WORKERS=N repro-dls figures``).

Replication seeds come from one function,
:func:`repro.workloads.replication_entropies`: the runs of every block
take replication ``i``'s seed from it, so a (task, runs, campaign seed)
triple names one set of replications on every backend, and a sweep of
more runs keeps the earlier ones.
"""

from __future__ import annotations

import atexit
import hashlib
import multiprocessing
import os
import signal
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from ..backends import (
    BATCH_BLOCK_RUNS,
    FallbackEvent,
    ReplicationBlock,
    get_backend,
    peek_fallback_events,
    record_fallback,
    resolve_backend,
    walk_fallbacks,
)
from ..cache import ResultCache, active_cache
from ..cache import suspended as cache_suspended
from ..core.params import SchedulingParams
from ..metrics.wasted_time import OverheadModel
from ..obs import metrics as obs_metrics
from ..obs import progress as obs_progress
from ..obs.journal import active_journal
from ..results import RunResult
from ..workloads.distributions import Workload
from ..workloads.generator import replication_entropies

if TYPE_CHECKING:
    from ..scenarios import Scenario
    from ..simgrid.platform import Platform

__all__ = [
    "BATCH_BLOCK_RUNS",
    "RunTask",
    "resolve_workers",
    "run_campaign",
    "run_replicated",
    "run_replicated_batch",
    "shutdown_pool",
]


@dataclass(frozen=True)
class RunTask:
    """One independent simulation run, fully described by data.

    ``simulator`` names a registered backend (see
    ``repro.backends.backend_names()``); execution resolves it through
    the capability-checked fallback chain.

    Seeding: ``seed_entropy`` holds the entropy of the run's
    ``numpy.random.SeedSequence``.  When it is left empty the seed is
    *derived deterministically from the task's own fields* (technique,
    params, workload, backend, platform, ...), so executing the same
    task twice always reproduces the same result — there is no silent
    fallback to OS entropy.  Distinct replications of one cell must
    therefore carry distinct explicit entropy (see
    :func:`run_replicated`).
    """

    technique: str
    params: SchedulingParams
    workload: Workload
    simulator: str = "msg"
    overhead_model: OverheadModel = OverheadModel.POST_HOC
    platform: Platform | None = None
    technique_kwargs: dict = field(default_factory=dict)
    seed_entropy: tuple[int, ...] = ()
    #: populate ``RunResult.chunk_log`` (timeline export); backends that
    #: cannot record one (direct-batch) degrade along their fallback
    #: chain with a recorded event.  Excluded from seed derivation, so a
    #: traced run reproduces the untraced run bit-for-bit.
    collect_chunk_log: bool = False
    #: perturbation scenario (``repro.scenarios.Scenario``) or ``None``
    #: for a clean system.  A set scenario enters seed derivation and
    #: the cache key (perturbed results differ from clean ones); the
    #: backend registry checks the fault/fluctuation capability axes and
    #: degrades with a recorded event where a backend lacks the models.
    scenario: "Scenario | None" = None

    def _platform_key(self) -> str:
        """A content-based key for the platform (stable across processes).

        The default ``object`` repr would embed a memory address, so the
        platform enters the seed key through its XML serialisation, which
        the platform computes once (``platform_to_xml``).
        """
        if self.platform is None:
            return "None"
        from ..simgrid.xmlio import platform_to_xml

        return platform_to_xml(self.platform)

    def derived_entropy(self) -> tuple[int, ...]:
        """Deterministic seed entropy from the task's own fields.

        Used when ``seed_entropy`` is empty; stable across processes and
        interpreter restarts (content hash, not ``hash()``).  The
        backend enters through its ``entropy_namespace`` — backends that
        are bit-identical to another (msg-fast to msg) share its
        namespace, so the equality is visible even for single un-seeded
        tasks.
        """
        parts = [
            self.technique,
            repr(self.params),
            repr(self.workload),
            get_backend(self.simulator).entropy_namespace,
            self.overhead_model.value,
            self._platform_key(),
            # the slots of two retired fields (per-worker speeds and
            # start times, never set on a task), kept so every derived
            # seed and cache key stays put
            "None",
            "None",
            repr(sorted(self.technique_kwargs.items())),
        ]
        # Appended only when set, so every clean task keeps its
        # pre-scenario seed (and cache key) bit for bit.
        if self.scenario is not None:
            parts.append(repr(self.scenario))
        key = "|".join(parts)
        digest = hashlib.sha256(key.encode()).digest()
        return tuple(
            int.from_bytes(digest[i:i + 4], "big") for i in range(0, 16, 4)
        )

    def execute(self) -> RunResult:
        """Run this task on its resolved backend and return the result.

        This is ``run_campaign([self], processes=1)[0]``: while a result
        cache is active (:func:`repro.cache.cache_to` / ``--cache``) the
        run is served from the cache when its content key hits, and
        stored after simulating when it misses; a fresh run writes the
        same journal records and metrics as any other.
        """
        return run_campaign([self], processes=1)[0]


def _replay_entry_fallbacks(entry) -> None:
    """Re-record the fallback events stored in a cache entry's provenance.

    A hit never resolves a backend, so without replay a fully cached
    campaign would report zero degradations even though the stored
    results were produced by a fallback backend.  The process-wide log
    deduplicates, so repeated hits of one cell report once, exactly
    like repeated fresh resolutions.
    """
    for event in entry.provenance.get("fallbacks", ()):
        try:
            record_fallback(FallbackEvent(
                task_key=event["task"],
                requested=event["requested"],
                chosen=event["chosen"],
                reason=event["reason"],
            ))
        except (KeyError, TypeError):  # foreign/legacy provenance shape
            continue


def _execute_indexed(indexed: tuple[int, ReplicationBlock]):
    # A block runs straight on its backend, never through the cache or
    # the journal, so a pool worker never writes to the parent's journal.
    index, block = indexed
    return index, block.execute()


def resolve_workers(processes: int | None = None) -> int:
    """The worker-pool size: argument > ``REPRO_WORKERS`` > CPU count.

    A ``REPRO_WORKERS`` value that is not an integer, or is zero or
    negative, fails with an error naming the variable — never a raw
    traceback deep inside the pool machinery, and never a silent clamp.
    """
    if processes is not None:
        return max(1, int(processes))
    env = os.environ.get("REPRO_WORKERS")
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(
                f"REPRO_WORKERS must be an integer, got {env!r}"
            ) from None
        if value <= 0:
            raise ValueError(
                f"REPRO_WORKERS must be a positive integer, got {env!r}"
            )
        return value
    return os.cpu_count() or 1


# -- persistent worker pool ----------------------------------------------
_POOL: multiprocessing.pool.Pool | None = None
_POOL_SIZE: int = 0
#: guards pool creation/teardown — the serve layer dispatches campaigns
#: from handler threads, so two threads must never race one another into
#: creating (or terminating) the shared pool
_POOL_LOCK = threading.Lock()
#: dispatches currently iterating over the pool (under _POOL_LOCK)
_POOL_ACTIVE: int = 0
#: True inside a pool worker process (set by the initializer); nested
#: campaign calls there must not fork a pool-within-a-pool
_IN_POOL_WORKER: bool = False


def _pool_worker_init() -> None:
    """Per-worker initialisation: drop the inherited cache and handlers.

    Cache traffic is a parent-process concern (lookups partition the
    work before pooling; stores happen after results return), so a
    forked worker must not repeat lookups or flush session stats.  The
    worker is also marked as such, so any campaign entry point reached
    from inside a simulated task degrades to the serial loop instead of
    trying to fork a nested pool (daemonic pool workers cannot have
    children — without the guard that is a crash deep in
    ``multiprocessing``).
    """
    global _IN_POOL_WORKER

    from ..cache import deactivate_in_worker

    deactivate_in_worker()
    _IN_POOL_WORKER = True
    # a terminal Ctrl-C is the parent's to handle: it drains or
    # terminates the pool deliberately, so workers must not die mid-task
    # with their own KeyboardInterrupt tracebacks (the long-running
    # serve process makes this the *normal* shutdown path)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Pool.terminate() ends workers with SIGTERM; a handler inherited
    # from the forking process (one that raises SystemExit, say) could
    # keep a worker alive and hang shutdown_pool's join
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def in_pool_worker() -> bool:
    """True when the calling process is one of the shared pool's workers."""
    return _IN_POOL_WORKER


def _usable_workers(processes: int | None) -> int:
    """The parallelism execution may actually use.

    Inside a pool worker the answer is always 1 — a nested campaign
    call runs serially in-process rather than forking a pool inside
    the pool.
    """
    if _IN_POOL_WORKER:
        return 1
    return resolve_workers(processes)


def _get_pool(processes: int) -> multiprocessing.pool.Pool:
    """The shared pool, (re)created only when the size changes.

    Caller must hold ``_POOL_LOCK``.  While another thread is actively
    dispatching over the pool (``_POOL_ACTIVE > 0``) a differing size
    request reuses the existing pool instead of terminating it out from
    under the other thread — concurrent advisor queries share one pool,
    whatever sizes they ask for.
    """
    global _POOL, _POOL_SIZE
    if _IN_POOL_WORKER:
        raise RuntimeError(
            "cannot create the shared process pool inside one of its own "
            "workers — nested campaign calls must run serially"
        )
    if _POOL is not None and _POOL_SIZE != processes and _POOL_ACTIVE == 0:
        _shutdown_pool_locked()
    if _POOL is None:
        _POOL = multiprocessing.Pool(
            processes=processes, initializer=_pool_worker_init
        )
        _POOL_SIZE = processes
    return _POOL


def _shutdown_pool_locked() -> None:
    global _POOL, _POOL_SIZE
    if _POOL is not None:
        _POOL.terminate()
        _POOL.join()
        _POOL = None
        _POOL_SIZE = 0


def shutdown_pool() -> None:
    """Terminate the persistent pool (tests; end of process via atexit)."""
    with _POOL_LOCK:
        _shutdown_pool_locked()


atexit.register(shutdown_pool)


def _advance_progress(
    tracker: obs_progress.ProgressTracker | None,
    results: list[RunResult],
) -> None:
    """Count one completed block of runs as progress."""
    if tracker is not None:
        tracker.advance(len(results), sum(r.stats.events for r in results))


def _run_pooled(blocks: Sequence[ReplicationBlock],
                processes: int,
                tracker: obs_progress.ProgressTracker | None = None) -> list:
    """Execute blocks (in order) over the persistent pool."""
    global _POOL_ACTIVE
    with _POOL_LOCK:
        pool = _get_pool(processes)
        _POOL_ACTIVE += 1
    try:
        chunksize = max(1, len(blocks) // (processes * 4))
        out: list = [None] * len(blocks)
        for index, results in pool.imap_unordered(
            _execute_indexed, list(enumerate(blocks)), chunksize=chunksize
        ):
            out[index] = results
            _advance_progress(tracker, results)
        return out
    finally:
        with _POOL_LOCK:
            _POOL_ACTIVE -= 1


# -- run journal ----------------------------------------------------------
def _journal_task_record(
    task: RunTask,
    results: Sequence[RunResult],
    campaign_seed: int | None = None,
) -> dict:
    """One JSONL ``task`` record: the task's identity plus aggregated
    :class:`~repro.obs.stats.RunStats` over all its replications."""
    stats = [r.stats for r in results]
    record = {
        "kind": "task",
        "technique": task.technique,
        "n": task.params.n,
        "p": task.params.p,
        "h": task.params.h,
        "requested": task.simulator,
        "backend": stats[0].backend,
        "runs": len(results),
        "wall_time_s": sum(s.wall_time for s in stats),
        "events": sum(s.events for s in stats),
        "fast_path_runs": sum(1 for s in stats if s.fast_path),
        "seed_entropy": list(task.seed_entropy) or None,
    }
    if task.scenario is not None:
        record["scenario"] = task.scenario.name
        record["lost_chunks"] = sum(
            int(r.extras.get("lost_chunks", 0)) for r in results
        )
        record["lost_tasks"] = sum(
            int(r.extras.get("lost_tasks", 0)) for r in results
        )
    if campaign_seed is not None:
        record["campaign_seed"] = campaign_seed
    return record


# -- the sweep executor ----------------------------------------------------
@dataclass(frozen=True)
class _Sweep:
    """The unit of caching and journaling: ``runs`` runs of ``task``.

    A campaign task is a sweep of one run under its own seed, cached
    under its task key (``single``).  A replication sweep is ``runs``
    replications spawned from ``campaign_seed``, cached under its sweep
    key.  Nothing else differs between the two.
    """

    task: RunTask
    runs: int = 1
    campaign_seed: int | None = None
    single: bool = False

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ValueError("runs must be >= 1")

    def cache_key(self, cache: ResultCache) -> str:
        if self.single:
            return cache.task_key(self.task)
        return cache.sweep_key(self.task, self.runs, self.campaign_seed)

    def describe(self) -> dict:
        """The human-readable identity block of the sweep's cache records."""
        describe = {
            "technique": self.task.technique,
            "n": self.task.params.n,
            "p": self.task.params.p,
            "simulator": self.task.simulator,
            "runs": self.runs,
        }
        if self.campaign_seed is not None:
            describe["campaign_seed"] = self.campaign_seed
        return describe

    def items(self) -> list[ReplicationBlock]:
        """Resolve the backend once, then cut the sweep into its blocks.

        Resolution records the sweep's fallback events.  A campaign task
        is one block holding its own seed (explicit, else derived from
        its fields); a replication sweep runs the spawned replications
        in blocks of the backend's ``block_runs``.
        """
        backend = resolve_backend(self.task)
        if self.single:
            entropies = [self.task.seed_entropy or self.task.derived_entropy()]
        else:
            entropies = replication_entropies(self.campaign_seed, self.runs)
        return backend.replication_blocks(self.task, entropies)

    # The progress label of this sweep run on its own (run_replicated,
    # or a --cache-verify recompute).
    def label(self, misses: int) -> str:
        if self.single:
            return "campaign"
        return f"{self.task.technique} x{self.runs}"


def _run_items(
    blocks: Sequence[ReplicationBlock],
    processes: int | None,
    tracker: obs_progress.ProgressTracker | None,
) -> list[list[RunResult]]:
    """Execute blocks in order: one serial loop, or one pooled dispatch."""
    workers = _usable_workers(processes)
    if workers > 1 and len(blocks) > 1:
        return _run_pooled(blocks, workers, tracker)
    outputs = []
    for block in blocks:
        results = block.execute()
        outputs.append(results)
        _advance_progress(tracker, results)
    return outputs


def _recompute(sweep: _Sweep, processes: int | None) -> list[RunResult]:
    """Cache-blind re-simulation of one sweep (``--cache-verify``)."""
    with cache_suspended():
        return _execute_sweeps([sweep], processes, sweep.label)[0]


def _execute_sweeps(
    sweeps: Sequence[_Sweep],
    processes: int | None,
    label: Callable[[int], str],
) -> list[list[RunResult]]:
    """Run sweeps through the cache: the one path behind every entry point.

    1. Every sweep is looked up in the active cache.  A hit is served
       from disk, verified when sampled, and replays its stored
       fallback events.
    2. The misses are resolved here, in the parent process, so an
       unresolvable task fails before anything runs and every
       degradation is recorded (worker processes keep their own,
       discarded, fallback logs).
    3. The blocks of all misses run in one serial loop or one pooled
       dispatch, with the cache suspended; progress heartbeats are
       labelled ``label(misses)``.
    4. Each fresh sweep is stored with its own fallback hops, the fresh
       results fold into the active metrics registry, and the journal
       gets a ``fallback`` record per new degradation, then one
       ``task`` record per fresh sweep.

    Returns one result list per sweep, in sweep order.
    """
    journal = active_journal()
    cache = active_cache()
    fallbacks_before = len(peek_fallback_events())
    results: list[list[RunResult] | None] = [None] * len(sweeps)
    keys: list[str] = []
    if cache is not None:
        for index, sweep in enumerate(sweeps):
            key = sweep.cache_key(cache)
            keys.append(key)
            describe = sweep.describe()
            entry = cache.get(key, describe=describe)
            if entry is None:
                continue
            cache.maybe_verify(
                key, entry,
                lambda sweep=sweep: _recompute(sweep, processes),
                describe=describe,
            )
            _replay_entry_fallbacks(entry)
            results[index] = list(entry.results)
    misses = [i for i, group in enumerate(results) if group is None]
    # Each sweep's blocks stay contiguous and in order, and execution
    # returns outputs in block order, so regrouping them reproduces every
    # sweep bit for bit, however many sweeps share the dispatch.
    items: list[ReplicationBlock] = []
    owners: list[int] = []
    for index in misses:
        sweep_items = sweeps[index].items()
        items.extend(sweep_items)
        owners.extend([index] * len(sweep_items))
    tracker = obs_progress.campaign_tracker(
        total=sum(sweeps[i].runs for i in misses),
        label=label(len(misses)), journal=journal,
        fallback_baseline=fallbacks_before,
    ) if misses else None
    with cache_suspended():
        outputs = _run_items(items, processes, tracker)
    if tracker is not None:
        tracker.finish()
    fresh: dict[int, list[RunResult]] = {i: [] for i in misses}
    for index, output in zip(owners, outputs):
        fresh[index].extend(output)
    for index, group in fresh.items():
        results[index] = group
        if cache is None:
            continue
        sweep = sweeps[index]
        stats = [r.stats for r in group]
        cache.put(
            keys[index],
            group,
            kind="task" if sweep.single else "sweep",
            describe=sweep.describe(),
            wall_time_s=sum(s.wall_time for s in stats),
            backend=stats[0].backend,
            fallbacks=walk_fallbacks(sweep.task)[1],
            platform=sweep.task.platform,
        )
    registry = obs_metrics.active_registry()
    if registry is not None:
        obs_metrics.record_results(
            registry,
            [r for group in fresh.values() for r in group],
            new_fallbacks=len(peek_fallback_events()) - fallbacks_before,
        )
    if journal is not None:
        # peeked, not drained: the pipeline and the CLI surface the events
        for event in peek_fallback_events()[fallbacks_before:]:
            journal.write({"kind": "fallback", **event.to_json()})
        for index, group in fresh.items():
            sweep = sweeps[index]
            journal.write(_journal_task_record(
                sweep.task, group, campaign_seed=sweep.campaign_seed
            ))
    return results


# -- entry points -------------------------------------------------------------
def run_campaign(tasks: Sequence[RunTask],
                 processes: int | None = None) -> list[RunResult]:
    """Execute tasks, parallelising over processes when it helps.

    Every task is a sweep of one run under its own seed (see
    :func:`_execute_sweeps`).  Its backend is resolved in the parent
    process first, so unresolvable tasks fail fast and every capability
    degradation is recorded here.  ``processes`` defaults to
    ``REPRO_WORKERS`` or the CPU count; with one process (or one task)
    the loop stays in-process, avoiding pickling overhead.  Results are
    returned in task order.

    While a result cache is active (:func:`repro.cache.cache_to` /
    ``--cache``), every task is looked up first: hits are served from
    disk (one ``cache`` journal record each) and only the misses are
    simulated — then stored, so the next campaign sharing the cache
    skips them too.

    When a run journal is active (:func:`repro.obs.journal_to`), one
    ``task`` record is written per freshly simulated task, plus a
    ``fallback`` record per new capability degradation.  While a
    progress sink is active (:func:`repro.obs.progress_to`, or the
    journal itself), throttled heartbeats report tasks done/total,
    events/s, ETA and fallback count; while a metrics registry is active
    (:func:`repro.obs.metrics_to`), freshly simulated results fold
    into its campaign histograms (cache traffic feeds the dedicated
    ``cache_*`` counters instead).
    """
    groups = _execute_sweeps(
        [_Sweep(task, single=True) for task in tasks],
        processes,
        label=lambda misses: "campaign",
    )
    return [group[0] for group in groups]


def run_replicated(task: RunTask, runs: int, campaign_seed: int | None = None,
                   processes: int | None = None) -> list[RunResult]:
    """Expand ``runs`` replications of one task and run them.

    The task's backend is resolved once through the registry's fallback
    chain (recording :class:`~repro.backends.FallbackEvent` objects for
    any degradation).  The fast paths (``direct-batch``, ``msg-fast``)
    run the replications in blocks of :data:`BATCH_BLOCK_RUNS` that each
    amortise one chunk-schedule precomputation; ``msg`` and ``direct``
    run one replication per block.  Each run keeps its own seed, so the
    results depend on neither the block size nor the worker count.

    While a result cache is active, the *whole sweep* is one cache
    entry keyed by (task identity, ``runs``, ``campaign_seed``): a hit
    returns every replication from disk (one ``cache`` journal record,
    no ``task`` record) and replays the entry's stored fallback events
    so degradation reporting stays faithful; a miss simulates as usual
    and stores the sweep for the next campaign.

    When a run journal is active, a freshly simulated sweep is one
    ``task`` record (stats aggregated over all replications), written
    after its cache ``store`` record, plus a ``fallback`` record per new
    degradation.
    """
    sweep = _Sweep(task, runs, campaign_seed)
    return _execute_sweeps([sweep], processes, sweep.label)[0]


def run_replicated_batch(
    sweeps: Sequence[tuple[RunTask, int, int | None]],
    processes: int | None = None,
    label: str = "batch",
) -> list[list[RunResult]]:
    """Execute many replication sweeps with *one* pooled dispatch.

    ``sweeps`` is a sequence of ``(task, runs, campaign_seed)`` triples
    — e.g. every candidate technique of one advisor query, or the
    union of several concurrent queries.  Each sweep is bit-identical
    to :func:`run_replicated` on the same triple (same cache keys, same
    seeds, same block partitioning, same cache, journal and metrics
    semantics), but the execution items of *all* cache misses fan out
    over the shared process pool in a single ``imap`` pass, amortising
    pool dispatch across the whole batch instead of paying one
    round-trip per sweep.
    """
    plan = [_Sweep(task, runs, seed) for task, runs, seed in sweeps]
    return _execute_sweeps(
        plan, processes, label=lambda misses: f"{label} x{misses}"
    )
