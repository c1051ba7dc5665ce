"""Wasted-time accounting (Section III-B of the paper).

Hagerup defines a worker's *wasted time* in one run as the sum of its idle
time and its scheduling overhead; the *average wasted time* of a run is
the sum over workers divided by the number of workers.  Three models of
where the per-scheduling-operation overhead ``h`` is charged are
implemented (the starred design decision of DESIGN.md §6):

``POST_HOC``
    What the paper's own reproduction does: the simulation runs with free
    scheduling, per-worker wasted time is the idle time
    ``makespan - compute_time``, and afterwards the scheduling overhead
    ``h`` times the number of chunks is added — *per worker on average*,
    i.e. ``h * num_chunks / p``.  (The paper defines a worker's wasted
    time as "the sum of the idle time and of the scheduling overhead of
    this worker" and averages over workers; the consistency check fixing
    the ``1/p`` is the SS experiment at n = 524288, p = 2, whose reported
    average wasted time of 1.3e5 s equals ``h * n / p``.)

``PER_WORKER``
    Hagerup's in-model variant: each worker pays ``h`` immediately before
    executing each of its chunks, so the overhead inflates the makespan
    and each worker's wasted time is its idle time plus ``h`` times its
    chunk count.

``SERIALIZED_MASTER``
    A pessimistic model where scheduling operations serialise through the
    master: a request is serviced no earlier than ``h`` after the
    previous one started being serviced.  Captures master-contention
    effects the other two models ignore.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence


class OverheadModel(Enum):
    """Where the per-scheduling-operation overhead ``h`` is charged."""

    POST_HOC = "post-hoc"
    PER_WORKER = "per-worker"
    SERIALIZED_MASTER = "serialized-master"

    @classmethod
    def from_name(cls, name: str) -> "OverheadModel":
        for model in cls:
            if model.value == name or model.name.lower() == name.lower():
                return model
        raise ValueError(
            f"unknown overhead model {name!r}; "
            f"known: {[m.value for m in cls]}"
        )


def average_wasted_time(
    makespan: float,
    compute_times: Sequence[float],
    num_chunks: int,
    h: float,
    model: OverheadModel,
) -> float:
    """The paper's average wasted time of one run under a given model.

    For ``POST_HOC`` the average per-worker overhead ``h * num_chunks / p``
    is added after averaging the idle times (Section III-B).  For the
    other two models the overhead is already inside the makespan, so the
    idle-time average *is* the wasted time (it contains the overhead, as
    in Hagerup's definition "idle time plus scheduling overhead").
    """
    p = len(compute_times)
    if p == 0:
        raise ValueError("need at least one worker")
    idle_avg = sum(makespan - c for c in compute_times) / p
    if model is OverheadModel.POST_HOC:
        return idle_avg + h * num_chunks / p
    return idle_avg
