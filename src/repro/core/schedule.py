"""Shared closed-form chunk-schedule precomputation.

Both fast paths — the batch kernel (:mod:`repro.directsim.batch`) and
the compiled MSG loop (:mod:`repro.simgrid.fastpath`) — rest on the
same precondition: the technique's chunk sequence must be a pure
function of ``(n, p, params)`` so it can be computed once via
:meth:`~repro.core.base.Scheduler.chunk_schedule` and replayed across
replications.  This module holds the single eligibility predicate, the
precomputation helper and the one place that draws a schedule's chunk
times, so the two fast paths cannot drift apart.  Both replay a run
under its own seed: each replication draws from its own generator, in
the scalar simulators' chunk order.
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

#: chunks per segment of :meth:`PrecomputedSchedule.replication_times`:
#: 64 KB of floats, and one draw call per 2,048 chunks walked, which
#: keeps the call's fixed cost to a few percent of the walk.  Larger
#: segments hold more memory without walking faster.
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

    It is also the one place that draws the schedule's chunk times, one
    replication per generator, each from its own generator in chunk
    order — the order in which the scalar simulators draw them, so a
    replay under a run's seed draws that run's chunk times:
    :meth:`block_times` as a ``(R, C)`` matrix and
    :meth:`replication_times` as Python floats, a segment at a time.
    """

    label: str
    sizes: np.ndarray      # int64 chunk sizes, summing to n

    @property
    def num_chunks(self) -> int:
        return int(self.sizes.size)

    def block_times(
        self, workload: "Workload", rngs: Sequence[np.random.Generator]
    ) -> np.ndarray:
        """The ``(R, C)`` chunk times, row ``r`` drawn from ``rngs[r]``.

        The matrix is filled in place, one replication at a time.
        """
        sizes = self.sizes
        starts = np.cumsum(sizes) - sizes
        times = np.empty((len(rngs), sizes.size))
        for row, rng in zip(times, rngs):
            row[:] = workload.chunk_times_batch(starts, sizes, rng)
        return times

    def replication_times(
        self, workload: "Workload", rng: np.random.Generator
    ) -> Iterator[float]:
        """One replication's chunk times, in chunk order, as floats.

        The values and RNG consumption of a :meth:`block_times` row,
        drawn :data:`SEGMENT_CHUNKS` chunks at a time as the iterator is
        consumed, so SS at n = 524,288 holds its sizes plus one segment.
        """
        return itertools.chain.from_iterable(
            self._drawn_segments(workload, rng)
        )

    def _drawn_segments(
        self, workload: "Workload", rng: np.random.Generator
    ) -> Iterator[list[float]]:
        first = 0
        for lo in range(0, self.num_chunks, SEGMENT_CHUNKS):
            sizes = self.sizes[lo:lo + SEGMENT_CHUNKS]
            ends = np.cumsum(sizes) + first
            first = int(ends[-1])
            yield workload.chunk_times_batch(ends - sizes, sizes, rng).tolist()


def precompute_schedule(scheduler: Scheduler) -> PrecomputedSchedule:
    """The ``(label, sizes)`` schedule both fast paths replay.

    ``scheduler`` must be fresh; raises :class:`ScheduleUnavailableError`
    when the technique has no closed-form schedule.
    """
    if scheduler.state.scheduled_chunks:
        raise ValueError(
            "scheduler has already been used; pass a fresh one"
        )
    label = scheduler.label or scheduler.name
    sizes = scheduler.chunk_schedule()
    if sizes is None:
        raise ScheduleUnavailableError(
            f"{label or type(scheduler).__name__} has no precomputable "
            f"chunk schedule; use a scalar simulator"
        )
    return PrecomputedSchedule(label=label, sizes=sizes)
