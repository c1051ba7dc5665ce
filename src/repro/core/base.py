"""Scheduler base class and chunk bookkeeping.

Every DLS technique is a small mutable object created per run.  The master
(real or simulated) calls :meth:`Scheduler.next_chunk` whenever a worker
requests work, and — for adaptive techniques — feeds back measured execution
times through :meth:`Scheduler.record_finished`.

The split between the abstract :meth:`Scheduler._chunk_size` (the published
chunk-size formula) and the concrete :meth:`Scheduler.next_chunk` (clipping
against the remaining tasks, bookkeeping of ``r`` and ``m``) keeps each
technique module focused on its formula.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar, Iterable, Iterator

import numpy as np

from .params import SchedulingParams

if TYPE_CHECKING:
    from .stepping import SteppingState

#: Parameter symbols of Table I, used by :attr:`Scheduler.requires`.
PARAM_SYMBOLS = ("p", "n", "r", "h", "mu", "sigma", "f", "l", "m")


@dataclass(frozen=True)
class ChunkRecord:
    """One scheduling operation: ``size`` tasks assigned to ``worker``.

    ``index`` counts scheduling operations from 0; ``start`` is the index of
    the first task in the chunk (tasks are assigned in order).
    """

    index: int
    worker: int
    start: int
    size: int


@dataclass
class SchedulerState:
    """Mutable run-time state shared by all techniques (Table I's r and m)."""

    remaining: int          # r — tasks not yet assigned
    outstanding: int = 0    # tasks assigned but not yet reported finished
    scheduled_chunks: int = 0

    @property
    def in_flight_plus_remaining(self) -> int:
        """Table I's ``m``: remaining and under-execution tasks."""
        return self.remaining + self.outstanding


class Scheduler(ABC):
    """Abstract base for all DLS techniques.

    Class attributes
    ----------------
    name:
        Canonical lowercase identifier, e.g. ``"gss"``.
    label:
        Display label as used in the paper's figures, e.g. ``"GSS"``.
    requires:
        Frozen set of Table I symbols the technique needs (Table II of the
        paper).  ``p`` and ``n`` are always available; listing them here
        documents that the chunk formula actually uses them.
    adaptive:
        True for techniques that change behaviour based on measured
        execution times (AWF family, AF).
    deterministic_schedule:
        True when the technique's ``(start, size)`` chunk sequence is a
        pure function of ``(n, p, params)`` — independent of which worker
        requests, of request timing, and of measured execution times.
        Such techniques support :meth:`chunk_schedule` and therefore the
        vectorized batch-replication kernel
        (:mod:`repro.directsim.batch`).
    stepping_state:
        For a feedback technique, the :class:`~repro.core.stepping.
        SteppingState` class that advances it across replications in
        lock-step (the batch kernel's stepping path); None otherwise.
    """

    name: ClassVar[str] = ""
    label: ClassVar[str] = ""
    requires: ClassVar[frozenset[str]] = frozenset()
    adaptive: ClassVar[bool] = False
    deterministic_schedule: ClassVar[bool] = False
    stepping_state: ClassVar[type[SteppingState] | None] = None

    def __init__(self, params: SchedulingParams):
        self.params = params
        self.state = SchedulerState(remaining=params.n)
        self._last_chunk: ChunkRecord | None = None
        self._next_task = 0
        # Task regions returned by requeue_chunk (fault injection); they
        # are handed out again before any fresh tasks.
        self._requeued: list[tuple[int, int]] = []
        self.validate_params()

    # -- parameter validation -------------------------------------------
    def validate_params(self) -> None:
        """Check that every required optional parameter is present."""
        p = self.params
        missing = []
        if "h" in self.requires and p.h is None:
            missing.append("h")
        if "mu" in self.requires and p.mu is None:
            missing.append("mu")
        if "sigma" in self.requires and p.sigma is None:
            missing.append("sigma")
        if missing:
            raise ValueError(
                f"{self.label or type(self).__name__} requires parameters "
                f"{missing} (see Table II of the paper)"
            )

    # -- the public scheduling interface --------------------------------
    def next_chunk(self, worker: int) -> int:
        """Assign the next chunk to ``worker``; return its size (0 = done).

        The returned size is the technique's chunk-size formula clipped to
        the number of remaining tasks, and never negative.
        """
        if self.state.remaining <= 0:
            return 0
        size = self._chunk_size(worker)
        size = max(0, min(int(size), self.state.remaining))
        if size == 0 and self.state.remaining > 0:
            # A technique must make progress while work remains.
            size = 1
        if self._requeued:
            # Re-issue a lost region first (possibly splitting it).
            start, region = self._requeued.pop()
            if size < region:
                self._requeued.append((start + size, region - size))
            else:
                size = region
        else:
            start = self._next_task
            self._next_task += size
        record = ChunkRecord(
            index=self.state.scheduled_chunks,
            worker=worker,
            start=start,
            size=size,
        )
        self._last_chunk = record
        self.state.remaining -= size
        self.state.outstanding += size
        self.state.scheduled_chunks += 1
        self._after_assignment(record)
        return size

    def record_finished(
        self,
        worker: int,
        size: int,
        elapsed: float,
    ) -> None:
        """Report that ``worker`` finished a chunk of ``size`` tasks.

        ``elapsed`` is the measured wall time of the chunk (excluding the
        scheduling overhead unless the technique's variant dictates
        otherwise — see the AWF-D/E modules).  Non-adaptive techniques only
        use this to maintain ``m``.
        """
        if size < 0:
            raise ValueError("size must be non-negative")
        if size > self.state.outstanding:
            raise ValueError(
                f"reported {size} finished tasks but only "
                f"{self.state.outstanding} are outstanding"
            )
        self.state.outstanding -= size
        self._after_completion(worker, size, elapsed)

    def requeue_chunk(self, record: ChunkRecord) -> None:
        """Return a lost chunk's tasks to the pool (fault injection).

        Used when the PE executing a chunk fails: the chunk's task region
        re-enters the pool and will be re-issued before fresh tasks, so
        position-dependent workloads re-execute the same tasks.  The
        re-issued tasks appear in new :class:`ChunkRecord` entries, so the
        *sum* of all assigned chunk sizes exceeds ``n`` by the amount of
        lost work.
        """
        if record.size <= 0:
            return
        if record.size > self.state.outstanding:
            raise ValueError(
                f"cannot requeue {record.size} tasks; only "
                f"{self.state.outstanding} are outstanding"
            )
        self.state.outstanding -= record.size
        self.state.remaining += record.size
        self._requeued.append((record.start, record.size))

    @property
    def done(self) -> bool:
        """True once every task has been assigned."""
        return self.state.remaining == 0

    @property
    def last_chunk(self) -> ChunkRecord | None:
        """The most recently assigned chunk (None before any assignment).

        The scheduler keeps no other record: a run's simulator logs the
        chunks it needs, so its memory does not grow with their number.
        """
        return self._last_chunk

    @property
    def num_scheduling_operations(self) -> int:
        """Number of chunks assigned so far (the paper's overhead count)."""
        return self.state.scheduled_chunks

    # -- schedule precomputation ----------------------------------------
    def chunk_schedule(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The full chunk-size sequence this scheduler will produce, as runs.

        Returns two int64 arrays ``(sizes, counts)``: run ``j`` is
        ``counts[j]`` consecutive chunks of ``sizes[j]`` tasks, each run
        a maximal stretch of equal sizes, so ``np.repeat(sizes, counts)``
        is the sequence (summing to ``n``).  A constant-chunk technique
        (SS, CSS, FSC, STAT) has at most two runs, so its schedule holds
        no entry per chunk.  Returns ``None`` when the sequence depends on
        run-time feedback (worker identity, request timing, or measured
        execution times) and therefore cannot be precomputed.

        Must be called on a *fresh* scheduler.  The generic
        implementation drains ``self`` through the real
        :meth:`next_chunk` machinery, so the instance is consumed; most
        techniques override it with a closed form that leaves the
        instance untouched.  Used by the closed-form kernels
        (:mod:`repro.core.schedule`) to compute the schedule once per
        cell and reuse it across all replications.
        """
        if not self.deterministic_schedule:
            return None
        if self.state.scheduled_chunks:
            raise ValueError("chunk_schedule requires a fresh scheduler")
        return self._chunk_schedule()

    def _chunk_schedule(self) -> tuple[np.ndarray, np.ndarray]:
        """Closed-form hook behind :meth:`chunk_schedule`: the runs of
        :meth:`_chunk_sizes`, merged as they are produced."""
        return _runs(self._chunk_sizes())

    def _chunk_sizes(self) -> Iterator[int]:
        """The chunk sizes in order, one at a time.

        The generic fallback drains ``self`` through the real
        :meth:`next_chunk` machinery (consuming the instance); a
        technique with a chunk-size formula overrides it with the
        formula, which leaves the instance untouched.
        """
        mu = self.params.mu or 1.0
        while not self.done:
            size = self.next_chunk(0)
            if size == 0:
                break
            yield size
            self.record_finished(0, size, elapsed=size * mu)

    @staticmethod
    def _constant_schedule(
        n: int, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Closed form for constant-chunk techniques: ``k``-sized chunks
        until fewer than ``k`` tasks remain, then the remainder — at
        most two runs."""
        if n <= 0:
            return _runs(())
        k = max(1, min(int(k), n))
        full, rem = divmod(n, k)
        return (
            np.array([k, rem] if rem else [k], dtype=np.int64),
            np.array([full, 1] if rem else [full], dtype=np.int64),
        )

    # -- hooks for subclasses -------------------------------------------
    @abstractmethod
    def _chunk_size(self, worker: int) -> int:
        """The technique's chunk-size formula (before clipping)."""

    def _after_assignment(self, record: ChunkRecord) -> None:
        """Hook invoked after a chunk is assigned (batch bookkeeping)."""

    def _after_completion(self, worker: int, size: int, elapsed: float) -> None:
        """Hook invoked after a chunk completion report (adaptivity)."""

    # -- helpers ----------------------------------------------------------
    @staticmethod
    def _ceil_div(a: int, b: int) -> int:
        return -(-a // b)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} n={self.params.n} p={self.params.p} "
            f"remaining={self.state.remaining}>"
        )


def _runs(chunk_sizes: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
    """The ``(sizes, counts)`` runs of a chunk-size sequence: one entry
    per maximal stretch of equal consecutive sizes."""
    sizes: list[int] = []
    counts: list[int] = []
    for size, run in itertools.groupby(chunk_sizes):
        sizes.append(size)
        counts.append(sum(1 for _ in run))
    return np.array(sizes, dtype=np.int64), np.array(counts, dtype=np.int64)


def chunk_sizes(scheduler: Scheduler) -> list[int]:
    """Drain ``scheduler`` with round-robin worker requests; return sizes.

    A convenience used by tests, docs and Table II generation: it assumes
    workers request work in cyclic order, which matches the behaviour of the
    techniques whose chunk size does not depend on *which* worker asks.
    """
    sizes: list[int] = []
    worker = 0
    p = scheduler.params.p
    mu = scheduler.params.mu or 1.0
    while not scheduler.done:
        size = scheduler.next_chunk(worker)
        if size == 0:
            break
        sizes.append(size)
        # Feed back an idealised elapsed time so adaptive techniques can
        # be drained too.
        scheduler.record_finished(worker, size, elapsed=size * mu)
        worker = (worker + 1) % p
    return sizes
