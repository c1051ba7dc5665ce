"""Batched stepping states for the feedback-loop techniques.

The closed-form fast paths (:mod:`repro.core.schedule`) cover techniques
whose chunk sequence is a pure function of ``(n, p, params)``.  The
adaptive and worker-dependent techniques — the AWF family, AF, BOLD,
WF, PLS, RND — are per-chunk *feedback* loops instead: each chunk size
depends on which worker asks, when it asks, or what execution times were
measured.  They cannot be precomputed, but they *can* be advanced in
lock-step across R replications: one scheduling round assigns exactly
one chunk per live replication, so the technique's scalar state
(per-worker weighted averages, Welford estimates, batch bookkeeping)
generalises to ``(R,)``- or ``(R, p)``-shaped arrays with one vectorized
update per round.

A :class:`SteppingState` is that array-shaped state.  Each technique
module defines its own state class next to the scalar implementation and
names it in the technique's ``stepping_state`` class attribute (see
:class:`~repro.core.base.Scheduler`); the state reads the technique's
constants off a scalar *prototype* instance so the two paths share one
set of formulas and cannot drift.  The round-loop kernel that drives these
states lives in :mod:`repro.directsim.batch`; its fidelity contract is
the same as the closed-form kernel's: each replication draws from its
own seed's generator in the scalar order, so its results are
bit-identical to the scalar run under that seed, on every workload
(``tests/test_stepping_kernel.py``).

Bitwise-fidelity helpers
------------------------
:func:`ordered_sum` exists because ``np.sum`` uses pairwise summation,
which is *not* bitwise equal to the scalar code's sequential Python
``sum``.  A cumulative sum is evaluated strictly left-to-right, so its
last element reproduces the scalar reductions bit-for-bit (adding the
``0.0`` of masked-out entries is an exact identity for finite values).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .base import Scheduler

__all__ = ["SteppingState", "ceil_div", "ordered_sum"]


def ordered_sum(values: np.ndarray) -> np.ndarray:
    """Strict left-to-right sum along the last axis.

    Bitwise equal to the scalar code's sequential ``sum()`` over the
    same values, unlike ``np.sum`` (pairwise summation).
    """
    return np.cumsum(values, axis=-1)[..., -1]


def ceil_div(a: np.ndarray, b: int | np.ndarray) -> np.ndarray:
    """Vectorized ``Scheduler._ceil_div`` (exact for integer arrays)."""
    return -(-a // b)


class SteppingState(ABC):
    """Array-shaped adaptive state of one technique across R replications.

    Built from a fresh scalar *prototype* scheduler (never mutated; only
    its parameters and technique constants are read).  The kernel calls
    the three hooks with parallel ``(K,)`` arrays describing the K live
    replications of the current round — ``rows`` (replication indices,
    unique within a round), ``workers`` (the requesting PE per
    replication), and the per-replication counters.  Hook order per
    round mirrors one scalar ``next_chunk`` cycle: pending completions
    are reported first (:meth:`record_finished`), then chunk sizes are
    computed (:meth:`chunk_sizes`), then the *clipped* sizes are
    confirmed (:meth:`after_assignment`).
    """

    def __init__(self, prototype: "Scheduler", reps: int):
        if reps < 1:
            raise ValueError("reps must be >= 1")
        self.prototype = prototype
        self.params = prototype.params
        self.reps = int(reps)

    @abstractmethod
    def chunk_sizes(
        self,
        rows: np.ndarray,
        workers: np.ndarray,
        remaining: np.ndarray,
        outstanding: np.ndarray,
    ) -> np.ndarray:
        """The technique's unclipped chunk-size formula, one per row.

        ``remaining``/``outstanding`` are the pre-assignment task
        counters of the selected rows (Table I's r and m - r).  The
        kernel clips the returned sizes exactly as
        :meth:`repro.core.base.Scheduler.next_chunk` does.
        """

    def after_assignment(
        self, rows: np.ndarray, workers: np.ndarray, sizes: np.ndarray
    ) -> None:
        """Hook after assignment; ``sizes`` are the clipped chunk sizes."""

    def record_finished(
        self,
        rows: np.ndarray,
        workers: np.ndarray,
        sizes: np.ndarray,
        elapsed: np.ndarray,
    ) -> None:
        """Report finished chunks (adaptive feedback), one per row."""
