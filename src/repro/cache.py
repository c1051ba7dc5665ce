"""Content-addressed, on-disk cache of simulation results.

PRs 1-3 made runs bit-identical functions of their :class:`~repro.
experiments.runner.RunTask` description — the same task always produces
the same :class:`~repro.results.RunResult`.  That makes results
*cacheable by construction*: this module stores them on disk keyed by a
stable content hash of the task identity, so re-running an identical
campaign is a set of disk lookups instead of a simulation, and
concurrent campaigns against the same directory share work.

Key derivation
--------------
The cache key is a SHA-256 over

* the task's ``derived_entropy()`` — itself a content hash of every
  field that seeds a run (technique, params, workload, the backend's
  *entropy namespace*, overhead model, platform XML, technique kwargs,
  and two constant slots where per-worker speeds and start times sat
  before they stopped being task fields, so keys did not move).
  Backends that are bit-identical to another share its namespace
  (``msg-fast`` uses ``msg``, ``direct-batch`` uses ``direct``), so a
  cache populated by one serves the other;
* the explicit ``seed_entropy`` (distinct replications are distinct
  entries);
* ``collect_chunk_log`` — a traced run carries a populated
  ``chunk_log``, so it is a different *result* even though it is seeded
  identically;
* the constant ``results-v1``, the slot of a retired per-backend result
  version, kept so no key moved;
* the cache schema version, so stale formats miss cleanly (bumping
  :data:`SCHEMA_VERSION` invalidates every entry); and,
* for replication sweeps, the replication count and campaign seed
  (sweep results do not depend on the base task's ``seed_entropy``,
  which the expansion overrides, so sweep keys exclude it).

Storage
-------
``<root>/objects/<k[:2]>/<key>.pkl`` holds one pickled entry: schema
version, a human-readable ``describe`` block, per-entry provenance
(environment snapshot, platform XML hash, backend that actually ran,
fallback events), the host seconds the fresh computation cost, and the
results themselves.  Writes land in a temporary file and move into
place with :func:`os.replace`, so readers only ever see complete
entries and concurrent writers of the same key are harmless — both
write identical bytes.  ``<root>/sessions/`` accumulates one small JSON per process
session with hit/miss/store counters, which ``repro-dls cache stats``
aggregates.

Observability
-------------
While a run journal is active every lookup/store/verification writes a
``cache`` record; while a metrics registry is active the cache feeds
``cache_{hits,misses,stores,evictions}_total`` counters,
``cache_{read,written}_bytes_total``, and a ``cache_lookup_seconds``
histogram.  A cached result is as auditable as a fresh one.

Verification
------------
``verify_fraction`` re-simulates that fraction of cache hits and
compares the fresh results against the stored ones
(:class:`CacheVerificationError` on divergence) — the sampling guard
behind the CLI's ``--cache-verify``.  The sample is chosen from the
keys (:meth:`ResultCache.maybe_verify`), so every pass at one fraction
verifies the same entries.
"""

from __future__ import annotations

import json
import os
import pickle
import random
import tempfile
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

if TYPE_CHECKING:
    from .experiments.runner import RunTask
    from .results import RunResult

__all__ = [
    "CacheEntry",
    "CacheStats",
    "CacheVerificationError",
    "ResultCache",
    "active_cache",
    "cache_to",
    "deactivate_in_worker",
    "default_cache_dir",
    "suspended",
]

#: bump to invalidate every existing cache entry (stale schemas miss).
#: 2: results hold their per-PE times as ``array('d')`` and declare
#: ``__slots__``, so schema-1 pickles no longer load.
SCHEMA_VERSION = 2

#: environment variable naming the default cache directory
CACHE_ENV_VAR = "REPRO_CACHE"

#: exception types unpickling a corrupt, truncated, or foreign entry is
#: expected to raise.  Lookups and gc treat exactly these as "the entry
#: is unreadable" (a clean miss / a discard, with a journal record and a
#: ``cache_corrupt_entries_total`` tick); anything else — a MemoryError,
#: a KeyboardInterrupt, a bug in a result class's ``__setstate__`` —
#: propagates instead of being swallowed as corruption.
UNPICKLE_ERRORS: tuple[type[BaseException], ...] = (
    pickle.UnpicklingError,
    EOFError,
    AttributeError,
    ImportError,
    IndexError,
    KeyError,
    TypeError,
    ValueError,
)


class CacheVerificationError(RuntimeError):
    """A cached result diverged from a fresh re-simulation.

    Either the cache entry was corrupted/poisoned, or something that
    affects results is missing from the cache key — both are bugs that
    must fail loudly, never be served silently.
    """


@dataclass
class CacheStats:
    """Counters of one cache session (one activated process)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    verified: int = 0
    stale: int = 0
    errors: int = 0
    #: unreadable (corrupt/truncated/foreign) entries encountered —
    #: served as clean misses by lookups, discarded by gc
    corrupt: int = 0
    evictions: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    #: estimated host-seconds of simulation avoided by hits (sum of the
    #: stored entries' fresh-computation cost)
    saved_wall_s: float = 0.0
    lookup_s_total: float = 0.0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups, in [0, 1] (0 when nothing was looked up)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def to_json(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "verified": self.verified,
            "stale": self.stale,
            "errors": self.errors,
            "corrupt": self.corrupt,
            "evictions": self.evictions,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "saved_wall_s": round(self.saved_wall_s, 6),
            "lookup_s_total": round(self.lookup_s_total, 6),
            "hit_rate_percent": round(100.0 * self.hit_rate, 2),
        }

    @classmethod
    def from_json(cls, data: dict) -> "CacheStats":
        return cls(**{
            f: data.get(f, 0)
            for f in (
                "hits", "misses", "stores", "verified", "stale", "errors",
                "corrupt", "evictions", "bytes_read", "bytes_written",
                "saved_wall_s", "lookup_s_total",
            )
        })

    def merge(self, other: "CacheStats") -> None:
        for name in (
            "hits", "misses", "stores", "verified", "stale", "errors",
            "corrupt", "evictions", "bytes_read", "bytes_written",
            "saved_wall_s", "lookup_s_total",
        ):
            setattr(self, name, getattr(self, name) + getattr(other, name))


@dataclass(frozen=True)
class CacheEntry:
    """One deserialized cache entry: results plus their provenance."""

    key: str
    kind: str
    describe: dict
    provenance: dict
    wall_time_s: float
    created: float
    results: list = field(default_factory=list)


def default_cache_dir() -> str | None:
    """The ``REPRO_CACHE`` environment override (None = caching off)."""
    value = os.environ.get(CACHE_ENV_VAR)
    return value or None


class ResultCache:
    """A content-addressed on-disk store of :class:`RunResult` lists.

    Safe for concurrent use by independent processes: entries are
    written atomically (tempfile + ``os.replace``) and deterministic in
    their key, so the worst concurrent case is two processes computing
    the same cell once each — transient duplicate work, never a corrupt
    or wrong entry.
    """

    def __init__(
        self,
        root: str | Path,
        verify_fraction: float = 0.0,
    ):
        if not 0.0 <= verify_fraction <= 1.0:
            raise ValueError("verify_fraction must be in [0, 1]")
        self.root = Path(root)
        self.verify_fraction = verify_fraction
        self.stats = CacheStats()
        self._session_flushed = False

    # -- key derivation ---------------------------------------------------
    @staticmethod
    def _digest(parts: Sequence[str]) -> str:
        import hashlib

        return hashlib.sha256("|".join(parts).encode()).hexdigest()

    def _identity_parts(self, task: "RunTask", kind: str) -> list[str]:
        return [
            f"repro-cache-v{SCHEMA_VERSION}",
            kind,
            ",".join(str(v) for v in task.derived_entropy()),
            f"chunk_log={int(bool(task.collect_chunk_log))}",
            "results-v1",
        ]

    def task_key(self, task: "RunTask") -> str:
        """The content key of one single-run task (seed entropy included)."""
        parts = self._identity_parts(task, "task")
        parts.append(",".join(str(v) for v in task.seed_entropy))
        return self._digest(parts)

    def sweep_key(
        self, task: "RunTask", runs: int, campaign_seed: int | None
    ) -> str:
        """The content key of a whole replication sweep of one cell.

        The base task's ``seed_entropy`` is excluded: replication
        expansion overrides it, so sweep results cannot depend on it.
        """
        parts = self._identity_parts(task, "sweep")
        parts.append(f"runs={runs}")
        parts.append(f"campaign_seed={campaign_seed!r}")
        return self._digest(parts)

    # -- storage ----------------------------------------------------------
    def _object_path(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / f"{key}.pkl"

    def _journal(self, record: dict) -> None:
        from .obs.journal import active_journal

        journal = active_journal()
        if journal is not None:
            journal.write({"kind": "cache", **record})

    def _metrics_counter(self, name: str, help: str, amount: float) -> None:
        from .obs import metrics as obs_metrics

        registry = obs_metrics.active_registry()
        if registry is not None and amount:
            registry.counter(name, help).incr(amount)

    def _observe_lookup(self, seconds: float) -> None:
        from .obs import metrics as obs_metrics

        registry = obs_metrics.active_registry()
        if registry is not None:
            registry.histogram(
                "cache_lookup_seconds", "result-cache lookup latency"
            ).observe(seconds)

    def _note_corrupt(self, key: str, where: str, reason: str) -> None:
        """Count and journal one unreadable entry — never silently.

        A corrupt entry is still served as a clean miss (lookups) or
        discarded (gc), but every occurrence ticks the session stats,
        the ``cache_corrupt_entries_total`` counter, and writes a
        ``cache`` journal record, so real failures (a broken writer, a
        result class that no longer unpickles) are visible instead of
        masquerading as cache misses.
        """
        self.stats.errors += 1
        self.stats.corrupt += 1
        self._metrics_counter(
            "cache_corrupt_entries_total",
            "unreadable result-cache entries discarded",
            1,
        )
        self._journal({
            "op": "corrupt", "key": key[:16], "where": where,
            "reason": reason,
        })

    def get(self, key: str, describe: dict | None = None) -> CacheEntry | None:
        """Look up one entry; None on miss, stale schema, or corruption.

        Every outcome is counted (and journaled/metered while a journal
        or metrics registry is active); a stale or unreadable entry is a
        clean miss, never an error surfaced to the campaign.
        """
        t0 = time.perf_counter()
        path = self._object_path(key)
        entry: CacheEntry | None = None
        try:
            data = path.read_bytes()
        except OSError:
            data = None
        if data is not None:
            payload = None
            try:
                payload = pickle.loads(data)
            except UNPICKLE_ERRORS as exc:
                self._note_corrupt(
                    key, "get", f"{type(exc).__name__}: {exc}"
                )
            if isinstance(payload, dict):
                if (
                    payload.get("schema") == SCHEMA_VERSION
                    and payload.get("key") == key
                ):
                    entry = CacheEntry(
                        key=key,
                        kind=payload.get("kind", "task"),
                        describe=dict(payload.get("describe", {})),
                        provenance=dict(payload.get("provenance", {})),
                        wall_time_s=float(payload.get("wall_time_s", 0.0)),
                        created=float(payload.get("created", 0.0)),
                        results=list(payload.get("results", [])),
                    )
                else:
                    self.stats.stale += 1
            elif payload is not None:
                self._note_corrupt(
                    key, "get",
                    f"payload is {type(payload).__name__}, not a dict",
                )
        elapsed = time.perf_counter() - t0
        self.stats.lookup_s_total += elapsed
        self._observe_lookup(elapsed)
        record = {"key": key[:16], **(describe or {})}
        if entry is not None:
            self.stats.hits += 1
            self.stats.bytes_read += len(data)
            self.stats.saved_wall_s += entry.wall_time_s
            self._metrics_counter(
                "cache_hits_total", "result-cache hits", 1
            )
            self._metrics_counter(
                "cache_read_bytes_total", "result-cache bytes read",
                len(data),
            )
            self._journal({
                "op": "hit",
                "saved_wall_s": round(entry.wall_time_s, 6),
                "backend": entry.provenance.get("backend", ""),
                **record,
            })
        else:
            self.stats.misses += 1
            self._metrics_counter(
                "cache_misses_total", "result-cache misses", 1
            )
            self._journal({"op": "miss", **record})
        return entry

    def put(
        self,
        key: str,
        results: Sequence["RunResult"],
        *,
        kind: str = "task",
        describe: dict | None = None,
        wall_time_s: float = 0.0,
        backend: str = "",
        fallbacks: Sequence = (),
        platform=None,
    ) -> int:
        """Store one entry atomically; returns the bytes written.

        ``backend`` names the substrate that actually produced the
        results (after any capability fallback) and ``fallbacks`` the
        :class:`~repro.backends.FallbackEvent` objects recorded while
        producing them — both land in the entry's provenance alongside
        the environment snapshot (and the platform XML hash when a
        platform is in play), so a cached result is as auditable as a
        fresh one.
        """
        from .obs.provenance import capture_provenance

        provenance = capture_provenance(platform)
        provenance["backend"] = backend
        provenance["fallbacks"] = [e.to_json() for e in fallbacks]
        payload = {
            "schema": SCHEMA_VERSION,
            "key": key,
            "kind": kind,
            "describe": dict(describe or {}),
            "provenance": provenance,
            "wall_time_s": float(wall_time_s),
            "created": time.time(),
            "results": list(results),
        }
        data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        path = self._object_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        self.stats.bytes_written += len(data)
        self._metrics_counter(
            "cache_stores_total", "result-cache entries stored", 1
        )
        self._metrics_counter(
            "cache_written_bytes_total", "result-cache bytes written",
            len(data),
        )
        self._journal({
            "op": "store",
            "key": key[:16],
            "bytes": len(data),
            "wall_time_s": round(wall_time_s, 6),
            "backend": backend,
            **(describe or {}),
        })
        return len(data)

    # -- verification -----------------------------------------------------
    def maybe_verify(
        self,
        key: str,
        entry: CacheEntry,
        recompute: Callable[[], Sequence["RunResult"]],
        describe: dict | None = None,
    ) -> bool:
        """Re-simulate a key-chosen fraction of hits; fail loudly on drift.

        A hit is selected when its key's first 8 hex digits, read as a
        fraction of 16**8, fall below ``verify_fraction``: a function of
        the key alone, so every pass at one fraction verifies the same
        entries (0 verifies none, 1 every one).

        Returns True when this hit was selected and verified.  Raises
        :class:`CacheVerificationError` when the fresh results differ
        from the stored ones in any compared field (``RunResult``
        equality, which excludes observability stats).
        """
        if int(key[:8], 16) / 16 ** 8 >= self.verify_fraction:
            return False
        fresh = list(recompute())
        stored = list(entry.results)
        if fresh != stored:
            divergent = len(stored) if len(fresh) != len(stored) else next(
                i for i, (a, b) in enumerate(zip(fresh, stored)) if a != b
            )
            label = ", ".join(
                f"{k}={v}" for k, v in (describe or {}).items()
            )
            raise CacheVerificationError(
                f"cache entry {key[:16]} ({label}) diverged from a fresh "
                f"re-simulation at replication {divergent} of "
                f"{len(stored)} — the entry is corrupt or the cache key "
                "misses a result-affecting input; clear the cache "
                "(`repro-dls cache clear`) and report this"
            )
        self.stats.verified += 1
        self._journal({
            "op": "verify", "key": key[:16], "ok": True,
            **(describe or {}),
        })
        return True

    # -- maintenance ------------------------------------------------------
    def _object_files(self) -> list[Path]:
        objects = self.root / "objects"
        if not objects.is_dir():
            return []
        return sorted(objects.glob("*/*.pkl"))

    def entry_count(self) -> int:
        return len(self._object_files())

    def total_bytes(self) -> int:
        return sum(path.stat().st_size for path in self._object_files())

    def clear(self) -> int:
        """Remove every entry and session record; returns entries removed."""
        import shutil

        removed = self.entry_count()
        for sub in ("objects", "sessions"):
            shutil.rmtree(self.root / sub, ignore_errors=True)
        return removed

    @staticmethod
    def _unlink_examined(path: Path, examined: os.stat_result) -> bool:
        """Remove ``path`` only if it is still the file version examined.

        Entry writes land via ``os.replace``, so a concurrent process
        may swap a *fresh* entry into ``path`` between gc's examination
        and its unlink — deleting then would throw away a complete,
        just-written entry.  Re-stat and skip when the inode, mtime, or
        size changed; a file that vanished was already collected by a
        concurrent gc and is not this session's removal.
        """
        try:
            current = path.stat()
            if (
                current.st_ino,
                current.st_mtime_ns,
                current.st_size,
            ) != (
                examined.st_ino,
                examined.st_mtime_ns,
                examined.st_size,
            ):
                return False
            path.unlink()
            return True
        except OSError:
            return False

    def gc(
        self,
        max_age_s: float | None = None,
        max_bytes: int | None = None,
    ) -> tuple[int, int]:
        """Collect garbage; returns ``(entries removed, bytes remaining)``.

        Always removes unreadable entries (journaled, with a
        ``cache_corrupt_entries_total`` tick each) and entries of a
        different schema version.  ``max_age_s`` additionally drops
        entries whose file is older; ``max_bytes`` then evicts
        oldest-first until the store fits the budget.  Evictions are
        counted in the session stats (and the ``cache_evictions_total``
        metric).

        Safe against concurrent writers and collectors sharing the
        directory: every removal re-checks that the file is still the
        examined version first (entries are replaced atomically, so an
        entry rewritten mid-gc survives), and entries that vanish
        underneath the scan are skipped, not miscounted as corrupt.
        """
        now = time.time()
        survivors: list[tuple[float, int, Path]] = []
        removed = 0
        for path in self._object_files():
            try:
                stat = path.stat()
            except OSError:
                continue  # collected by a concurrent gc — not ours
            corrupt_reason: str | None = None
            payload = None
            try:
                payload = pickle.loads(path.read_bytes())
            except FileNotFoundError:
                continue  # vanished mid-scan, same as above
            except OSError as exc:
                corrupt_reason = f"unreadable: {exc}"
            except UNPICKLE_ERRORS as exc:
                corrupt_reason = f"{type(exc).__name__}: {exc}"
            ok = corrupt_reason is None and (
                isinstance(payload, dict)
                and payload.get("schema") == SCHEMA_VERSION
            )
            if corrupt_reason is None and not ok:
                corrupt_reason = (
                    "stale schema"
                    if isinstance(payload, dict)
                    else f"payload is {type(payload).__name__}, not a dict"
                )
            if ok and max_age_s is not None:
                ok = (now - stat.st_mtime) <= max_age_s
            if not ok:
                if self._unlink_examined(path, stat):
                    removed += 1
                    if corrupt_reason is not None:
                        self._note_corrupt(path.stem, "gc", corrupt_reason)
                continue
            survivors.append((stat.st_mtime, stat.st_size, path))
        if max_bytes is not None:
            total = sum(size for _, size, _ in survivors)
            for mtime, size, path in sorted(survivors):
                if total <= max_bytes:
                    break
                try:
                    examined = path.stat()
                except OSError:
                    continue
                # the budget pass reuses the scan's (mtime, size) order
                # but must not evict an entry refreshed since the scan
                if (examined.st_mtime, examined.st_size) != (mtime, size):
                    continue
                if self._unlink_examined(path, examined):
                    removed += 1
                    total -= size
        self.stats.evictions += removed
        self._metrics_counter(
            "cache_evictions_total", "result-cache entries evicted", removed
        )
        return removed, self.total_bytes()

    # -- session stats ----------------------------------------------------
    def _has_activity(self) -> bool:
        s = self.stats
        return bool(
            s.hits or s.misses or s.stores or s.evictions or s.corrupt
        )

    def flush_session(self) -> Path | None:
        """Persist this session's counters under ``<root>/sessions/``.

        Written once per activated session (deactivation flushes);
        sessions with no cache activity write nothing.  ``repro-dls
        cache stats`` reports the latest session and the lifetime
        aggregate over all of them.
        """
        if self._session_flushed or not self._has_activity():
            return None
        sessions = self.root / "sessions"
        sessions.mkdir(parents=True, exist_ok=True)
        record = {"t": time.time(), "pid": os.getpid(),
                  **self.stats.to_json()}
        stamp = time.strftime("%Y%m%dT%H%M%S")
        suffix = f"{os.getpid()}-{random.randrange(16 ** 6):06x}"
        path = sessions / f"{stamp}-{suffix}.json"
        fd, tmp = tempfile.mkstemp(dir=sessions, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(record, handle, indent=1)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._session_flushed = True
        return path

    def session_records(self) -> list[dict]:
        """All persisted session records, oldest first."""
        sessions = self.root / "sessions"
        if not sessions.is_dir():
            return []
        records = []
        for path in sessions.glob("*.json"):
            try:
                record = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            if isinstance(record, dict):
                records.append(record)
        records.sort(key=lambda r: r.get("t", 0.0))
        return records

    def describe_store(self) -> dict:
        """Machine-readable store summary (the ``cache stats`` payload)."""
        records = self.session_records()
        lifetime = CacheStats()
        for record in records:
            lifetime.merge(CacheStats.from_json(record))
        return {
            "root": str(self.root),
            "schema": SCHEMA_VERSION,
            "entries": self.entry_count(),
            "total_bytes": self.total_bytes(),
            "sessions": len(records),
            "last_session": records[-1] if records else None,
            "lifetime": lifetime.to_json(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ResultCache {self.root} hits={self.stats.hits} "
            f"misses={self.stats.misses}>"
        )


# -- the active cache ------------------------------------------------------
# One scope turns the cache on: ``cache_to`` activates a cache for its
# block and restores the cache active before it.  The active cache is a
# module global, not a ContextVar, so the request threads of
# ``repro-dls serve`` see the cache its main thread activated.
_ACTIVE: ResultCache | None = None
#: per thread (context), so one thread's suspension never hides the cache
#: from another thread whose lookups run concurrently
_SUSPENDED: ContextVar[bool] = ContextVar("repro_cache_suspended",
                                          default=False)


def active_cache() -> ResultCache | None:
    """The cache the runner consults (None = caching off or suspended)."""
    if _SUSPENDED.get():
        return None
    return _ACTIVE


def deactivate_in_worker() -> None:
    """Drop an inherited active cache inside a pool worker process.

    The campaign runner handles all cache traffic in the parent
    process; a forked worker inheriting the parent's active cache must
    not repeat lookups, stores, or session flushes.
    """
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def suspended() -> Iterator[None]:
    """Hide the active cache inside the block (re-entrant execution).

    The runner executes cache misses — and verification re-simulations —
    under this guard so the inner execution path cannot consult or
    repopulate the cache it is filling.  The guard covers the calling
    thread only: other threads keep their view of the active cache.
    """
    token = _SUSPENDED.set(True)
    try:
        yield
    finally:
        _SUSPENDED.reset(token)


@contextmanager
def cache_to(
    root: str | Path,
    verify_fraction: float = 0.0,
) -> Iterator[ResultCache]:
    """Cache all runs inside the block under ``root``.

    On exit the cache flushes its session stats and the cache active
    before the block, if any, is active again.
    """
    global _ACTIVE
    cache = ResultCache(root, verify_fraction=verify_fraction)
    outer, _ACTIVE = _ACTIVE, cache
    try:
        yield cache
    finally:
        _ACTIVE = outer
        cache.flush_session()
