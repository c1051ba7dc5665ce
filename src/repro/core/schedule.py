"""Shared closed-form chunk-schedule precomputation.

Both fast paths — the batch kernel (:mod:`repro.directsim.batch`) and
the compiled MSG loop (:mod:`repro.simgrid.fastpath`) — rest on the
same precondition: the technique's chunk sequence must be a pure
function of ``(n, p, params)`` so it can be computed once via
:meth:`~repro.core.base.Scheduler.chunk_schedule` and replayed across
replications.  This module holds the single eligibility predicate, the
precomputation helper and the one place that draws a schedule's chunk
times, so the two fast paths cannot drift apart.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

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

    It is also the one place that draws the schedule's chunk times:
    :meth:`block_times` as one ``(reps, C)`` matrix, and
    :meth:`replication_times` replication by replication as Python
    floats, a segment at a time.
    """

    label: str
    sizes: np.ndarray      # int64 chunk sizes, summing to n

    @property
    def num_chunks(self) -> int:
        return int(self.sizes.size)

    def block_times(
        self, workload: "Workload", reps: int, rng: np.random.Generator
    ) -> np.ndarray:
        """The ``(reps, C)`` chunk times of ``reps`` replications."""
        sizes = self.sizes
        return workload.chunk_times_batch(
            np.cumsum(sizes) - sizes, sizes, reps, rng
        )

    def replication_times(
        self, workload: "Workload", reps: int, rng: np.random.Generator
    ) -> Iterator[Iterator[float]]:
        """Each replication's chunk times, in chunk order, as floats.

        The draws and their RNG consumption are :meth:`block_times`'s,
        but no full row of floats (32 bytes a chunk) is ever built: a
        block of several replications is drawn as one matrix and handed
        out :data:`SEGMENT_CHUNKS` chunks at a time, and a single
        replication is drawn a segment at a time as it is consumed
        (every workload draws a replication chunk by chunk), so SS at
        n = 524,288 holds its sizes plus one segment.
        """
        if reps == 1:
            yield itertools.chain.from_iterable(
                self._drawn_segments(workload, rng)
            )
            return
        for row in self.block_times(workload, reps, rng):
            yield itertools.chain.from_iterable(
                row[lo:lo + SEGMENT_CHUNKS].tolist()
                for lo in range(0, row.size, SEGMENT_CHUNKS)
            )

    def _drawn_segments(
        self, workload: "Workload", rng: np.random.Generator
    ) -> Iterator[list[float]]:
        first = 0
        for lo in range(0, self.num_chunks, SEGMENT_CHUNKS):
            sizes = self.sizes[lo:lo + SEGMENT_CHUNKS]
            ends = np.cumsum(sizes) + first
            first = int(ends[-1])
            yield workload.chunk_times_batch(
                ends - sizes, sizes, 1, rng
            )[0].tolist()


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
