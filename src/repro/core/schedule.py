"""Shared closed-form chunk-schedule precomputation.

Both fast paths — the batch kernel (:mod:`repro.directsim.batch`) and
the compiled MSG loop (:mod:`repro.simgrid.fastpath`) — rest on the
same precondition: the technique's chunk sequence must be a pure
function of ``(n, p, params)`` so it can be computed once via
:meth:`~repro.core.base.Scheduler.chunk_schedule` and replayed across
replications.  This module holds the single eligibility predicate, the
precomputation helper and the one place that expands a schedule's runs
and draws its chunk times, so the two fast paths cannot drift apart.
Both replay a run under its own seed: each replication draws from its
own generator, in the scalar simulators' chunk order.  Both walk the
schedule a tile of at most :data:`SEGMENT_CHUNKS` chunks at a time, so
their memory does not grow with the number of chunks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .base import Scheduler
from .registry import get_technique

if TYPE_CHECKING:
    from ..workloads.distributions import Workload

#: chunks per tile of :meth:`PrecomputedSchedule.tiles`: 16 KB of
#: floats per replication, and one draw call per replication and 2,048
#: chunks walked, which keeps the call's fixed cost to a few percent of
#: the walk.  Larger tiles hold more memory without walking faster.
SEGMENT_CHUNKS = 2048


class ScheduleUnavailableError(ValueError):
    """The technique's chunk sequence cannot be precomputed."""


def _technique_class(
    technique: str | Scheduler | type[Scheduler],
) -> type[Scheduler]:
    if isinstance(technique, str):
        return get_technique(technique)
    if isinstance(technique, Scheduler):
        return type(technique)
    return technique


def schedule_ineligibility(
    technique: str | Scheduler | type[Scheduler],
) -> str | None:
    """Why ``technique``'s schedule cannot be precomputed (None = it can).

    The single predicate behind both fast paths: a technique qualifies
    when its chunk sequence is deterministic in ``(n, p, params)`` —
    independent of worker identity, request timing and measured
    execution times — and it is not adaptive.  The returned string is a
    short human-readable reason, used by fallback events and the docs'
    eligibility matrix.
    """
    cls = _technique_class(technique)
    if cls.adaptive:
        return "adaptive technique: chunk sizes depend on measured times"
    if not cls.deterministic_schedule:
        return "no precomputable chunk schedule for this technique"
    return None


def closed_form_supported(
    technique: str | Scheduler | type[Scheduler],
) -> bool:
    """True when ``technique``'s chunk schedule can be precomputed."""
    return schedule_ineligibility(technique) is None


@dataclass(frozen=True)
class PrecomputedSchedule:
    """One cell's chunk schedule, computed once and replayed per run.

    The schedule is stored as runs of equal chunk sizes (see
    :meth:`~repro.core.base.Scheduler.chunk_schedule`) and expanded a
    tile of at most :data:`SEGMENT_CHUNKS` chunks at a time, so no
    consumer holds an entry per chunk.  It is also the one place that
    draws the schedule's chunk times, one replication per generator,
    each from its own generator in chunk order — the order in which the
    scalar simulators draw them, so a replay under a run's seed draws
    that run's chunk times: :meth:`block_times` as ``(R, tile)``
    matrices and :meth:`replication_times` as Python floats.
    """

    label: str
    sizes: np.ndarray      # int64 chunk size of each run
    counts: np.ndarray     # int64 chunks in each run

    @property
    def num_chunks(self) -> int:
        return int(self.counts.sum())

    def tiles(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The chunks' ``(starts, sizes)``, a tile at a time, in order.

        Each tile holds the next :data:`SEGMENT_CHUNKS` chunks (fewer in
        the last), expanded from the runs that overlap it.
        """
        ends = np.cumsum(self.counts)           # chunk after each run
        total = int(ends[-1]) if ends.size else 0
        first_task = 0
        for lo in range(0, total, SEGMENT_CHUNKS):
            hi = min(lo + SEGMENT_CHUNKS, total)
            first = int(np.searchsorted(ends, lo, side="right"))
            last = int(np.searchsorted(ends, hi, side="left")) + 1
            run_ends = ends[first:last]
            taken = (np.minimum(run_ends, hi)
                     - np.maximum(run_ends - self.counts[first:last], lo))
            sizes = np.repeat(self.sizes[first:last], taken)
            stops = np.cumsum(sizes) + first_task
            first_task = int(stops[-1])
            yield stops - sizes, sizes

    def chunks(self) -> Iterator[tuple[int, int]]:
        """Every chunk's ``(start, size)`` as Python ints, in order."""
        for starts, sizes in self.tiles():
            yield from zip(starts.tolist(), sizes.tolist())

    def block_times(
        self, workload: "Workload", rngs: Sequence[np.random.Generator]
    ) -> Iterator[np.ndarray]:
        """The chunk times as ``(R, tile)`` matrices, in chunk order.

        Row ``r`` of every tile is drawn from ``rngs[r]``, whose
        consecutive draws equal one draw over the whole schedule (the
        :meth:`~repro.workloads.distributions.Workload.chunk_times_batch`
        contract), so a block holds one tile, never an ``(R, C)``
        matrix.  The iterator keeps no reference to a tile it has
        yielded, so a consumer that drops its own before asking for the
        next tile holds one tile at a time.
        """
        return (
            _draw_tile(workload, starts, sizes, rngs)
            for starts, sizes in self.tiles()
        )

    def replication_times(
        self, workload: "Workload", rng: np.random.Generator
    ) -> Iterator[float]:
        """One replication's chunk times, in chunk order, as floats.

        The one-row case of :meth:`block_times`, drawn a tile at a time
        as the iterator is consumed.
        """
        return itertools.chain.from_iterable(
            tile[0].tolist() for tile in self.block_times(workload, [rng])
        )


def _draw_tile(
    workload: "Workload",
    starts: np.ndarray,
    sizes: np.ndarray,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """One tile's ``(R, C)`` chunk times, row ``r`` drawn from ``rngs[r]``."""
    times = np.empty((len(rngs), sizes.size))
    for row, rng in zip(times, rngs):
        row[:] = workload.chunk_times_batch(starts, sizes, rng)
    return times


def precompute_schedule(scheduler: Scheduler) -> PrecomputedSchedule:
    """The ``(label, runs)`` schedule both fast paths replay.

    ``scheduler`` must be fresh; raises :class:`ScheduleUnavailableError`
    when the technique has no closed-form schedule.
    """
    if scheduler.state.scheduled_chunks:
        raise ValueError(
            "scheduler has already been used; pass a fresh one"
        )
    label = scheduler.label or scheduler.name
    runs = scheduler.chunk_schedule()
    if runs is None:
        raise ScheduleUnavailableError(
            f"{label or type(scheduler).__name__} has no precomputable "
            f"chunk schedule; use a scalar simulator"
        )
    sizes, counts = runs
    return PrecomputedSchedule(label=label, sizes=sizes, counts=counts)
