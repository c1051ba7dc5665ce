"""BOLD — the bold strategy (Hagerup, 1997).

BOLD extends factoring with explicit knowledge of the scheduling overhead
``h``: it follows factoring's decreasing batches, but refuses to let
chunks shrink below the size at which per-chunk overhead would dominate
the imbalance it prevents, and it never allocates more than one PE's fair
share of the *outstanding* work (Table I's ``m``).  Per Table II the
technique requires six quantities: ``p``, ``r``, ``h``, ``mu``, ``sigma``
and ``m``.

Reconstruction note
-------------------
Hagerup's paper derives the chunk size through coupled approximations
whose exact closed forms are not recoverable from the reproduction paper
alone.  This implementation reconstructs the strategy from its published
derivation principle — minimise estimated total wasted time, where the
overhead term is ``h``·(chunks per PE) and the imbalance term follows the
factoring analysis — as:

.. math::

   chunk(r, m) = \\min\\Big( \\lceil m/p \\rceil,\\;
       \\max\\big( chunk_{FAC}(r),\\; k_{KW}(r) \\big) \\Big)

where ``chunk_FAC`` is the factoring batch rule and

.. math::

   k_{KW}(r) = \\left( \\frac{\\sqrt{2}\\, h\\, r}
                       {\\sigma\\, p\\, \\sqrt{\\ln p}} \\right)^{2/3}

is the Kruskal-Weiss overhead-optimal size evaluated on the *remaining*
work.  The floor is what makes the strategy bold: when ``h`` is large the
tail stays coarse, trading a little imbalance for far fewer scheduling
operations.  With ``h = 0`` the floor vanishes and BOLD degenerates to
FAC, matching Hagerup's description of BOLD as an overhead-aware
refinement of factoring.  See DESIGN.md §3.
"""

from __future__ import annotations

import math

import numpy as np

from ..base import Scheduler
from ..registry import register
from ..stepping import SteppingState, register_stepping
from .factoring import factoring_x
from .fixed_size import optimal_fixed_chunk


def kw_floor(remaining: int, p: int, h: float, sigma: float) -> int:
    """Kruskal-Weiss overhead-optimal chunk for the remaining work."""
    if remaining <= 0:
        return 0
    if p <= 1 or sigma <= 0 or h <= 0:
        return 1
    return optimal_fixed_chunk(remaining, p, h, sigma)


@register_stepping("bold")
class _BoldSteppingState(SteppingState):
    """Batched BOLD state: per-replication batch bookkeeping.

    Batch starts go through the *scalar* helpers (``factoring_x``,
    ``kw_floor``) in a small Python loop over just the replications
    starting a batch that round — both because batch starts are ~p times
    rarer than chunks and because ``optimal_fixed_chunk``'s ``** (2/3)``
    is not guaranteed bitwise-identical between ``np.power`` and
    Python's ``**``.  Sharing the helpers keeps the two paths on one
    set of constants.
    """

    def __init__(self, prototype: Bold, reps: int):
        super().__init__(prototype, reps)
        params = self.params
        self._p = params.p
        self._h = params.h
        self._mu = params.mu if params.mu is not None else 1.0
        self._sigma = params.sigma if params.sigma is not None else 0.0
        self._batch_left = np.zeros(reps, dtype=np.int64)
        self._batch_chunk = np.zeros(reps, dtype=np.int64)
        self._batch_index = np.zeros(reps, dtype=np.int64)

    def chunk_sizes(self, rows, workers, remaining, outstanding):
        need = self._batch_left[rows] <= 0
        if need.any():
            p = self._p
            for i in np.flatnonzero(need):
                rep = int(rows[i])
                r = int(remaining[i])
                x = factoring_x(
                    r, p, self._mu, self._sigma,
                    first_batch=self._batch_index[rep] == 0,
                )
                fac_chunk = max(1, math.ceil(r / (x * p)))
                floor = kw_floor(r, p, self._h, self._sigma)
                fair_share = -(-max(1, r + int(outstanding[i])) // p)
                chunk = min(max(fac_chunk, floor), max(1, fair_share))
                self._batch_chunk[rep] = chunk
                self._batch_left[rep] = min(chunk * p, r)
                self._batch_index[rep] += 1
        return np.minimum(
            np.maximum(self._batch_chunk[rows], 1), self._batch_left[rows]
        )

    def after_assignment(self, rows, workers, sizes):
        self._batch_left[rows] -= sizes


@register
class Bold(Scheduler):
    """Overhead-aware factoring: factoring batches with a bold floor."""

    name = "bold"
    label = "BOLD"
    requires = frozenset({"p", "r", "h", "mu", "sigma", "m"})

    def __init__(self, params):
        super().__init__(params)
        self._batch_left = 0
        self._batch_chunk_size = 0
        self._batch_index = 0

    def _chunk_size(self, worker: int) -> int:
        if self._batch_left <= 0:
            self._start_batch()
        return min(max(1, self._batch_chunk_size), self._batch_left)

    def _start_batch(self) -> None:
        p = self.params.p
        r = self.state.remaining
        mu = self.params.mu if self.params.mu is not None else 1.0
        sigma = self.params.sigma if self.params.sigma is not None else 0.0
        x = factoring_x(r, p, mu, sigma, first_batch=self._batch_index == 0)
        fac_chunk = max(1, math.ceil(r / (x * p)))
        floor = kw_floor(r, p, self.params.h, sigma)
        # The fair share of the outstanding work (Table I's m) caps the
        # boldness; it is evaluated at batch start so the batch stays
        # uniform.  Since the factoring chunk never exceeds ceil(r/p),
        # the cap only ever binds on the KW floor.
        fair_share = self._ceil_div(
            max(1, self.state.in_flight_plus_remaining), p
        )
        chunk = min(max(fac_chunk, floor), max(1, fair_share))
        self._batch_chunk_size = chunk
        self._batch_left = min(chunk * p, r)
        self._batch_index += 1

    def _after_assignment(self, record) -> None:
        self._batch_left -= record.size
