"""WF — weighted factoring (Hummel, Schmidt, Uma & Wein, 1996).

Factoring for *heterogeneous* systems: within each batch, PE ``i`` receives
a share of the batch proportional to its (fixed, a-priori known) relative
speed weight ``w_i``.  The batch total follows the factoring rule
(``R_j / x_j`` tasks), so WF degenerates to FAC on a homogeneous system.

Weights come from :attr:`SchedulingParams.weights` (normalised to sum to
one); :func:`repro.core.params.weights_from_speeds` converts absolute PE
speeds.
"""

from __future__ import annotations

import math

import numpy as np

from ..base import Scheduler
from ..registry import register
from ..stepping import SteppingState
from .factoring import factoring_x


class _WFSteppingState(SteppingState):
    """Batched WF state: per-replication batch totals and claim sets.

    The chunk size depends on *which* worker asks (its weight, and
    whether it already claimed its share of the batch), so the kernel's
    argmin must present workers in the scalar heap's pop order — which
    it does by construction.  Batch starts reuse the scalar
    ``factoring_x`` in a small loop, as for BOLD.
    """

    def __init__(self, prototype: WeightedFactoring, reps: int):
        super().__init__(prototype, reps)
        params = self.params
        self._p = params.p
        self._mu = params.mu if params.mu is not None else 1.0
        self._sigma = params.sigma if params.sigma is not None else 0.0
        self._weights = np.asarray(prototype.weights, dtype=np.float64)
        self._batch_total = np.zeros(reps, dtype=np.int64)
        self._batch_left = np.zeros(reps, dtype=np.int64)
        self._batch_index = np.zeros(reps, dtype=np.int64)
        self._claimed = np.zeros((reps, params.p), dtype=bool)

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
                total = min(max(1, math.ceil(r / x)), r)
                self._batch_total[rep] = total
                self._batch_left[rep] = total
                self._batch_index[rep] += 1
                self._claimed[rep, :] = False
        left = self._batch_left[rows]
        claimed = self._claimed[rows, workers]
        share_claimed = np.maximum(left // self._p, 1)
        share_fresh = np.maximum(
            np.ceil(self._batch_total[rows] * self._weights[workers]), 1.0
        ).astype(np.int64)
        share = np.where(claimed, share_claimed, share_fresh)
        return np.minimum(share, left)

    def after_assignment(self, rows, workers, sizes):
        self._batch_left[rows] -= sizes
        self._claimed[rows, workers] = True


@register
class WeightedFactoring(Scheduler):
    """Per-batch chunks proportional to fixed PE weights."""

    name = "wf"
    label = "WF"
    requires = frozenset({"p", "r", "mu", "sigma"})
    stepping_state = _WFSteppingState

    def __init__(self, params):
        super().__init__(params)
        if params.weights is not None:
            self.weights = params.weights
        else:
            self.weights = tuple(1.0 / params.p for _ in range(params.p))
        self._batch_left = 0
        self._batch_total = 0
        self._batch_index = 0
        # Workers that already claimed their share of the current batch.
        self._claimed: set[int] = set()

    def _chunk_size(self, worker: int) -> int:
        if self._batch_left <= 0:
            self._start_batch()
        if worker in self._claimed and self._batch_left > 0:
            # A worker outpacing the batch cycle takes the equal-share
            # fallback from what is left of the batch.
            share = max(1, self._batch_left // max(1, self.params.p))
        else:
            share = max(1, math.ceil(self._batch_total * self.weights[worker]))
        return min(share, self._batch_left)

    def _start_batch(self) -> None:
        p = self.params.p
        mu = self.params.mu if self.params.mu is not None else 1.0
        sigma = self.params.sigma if self.params.sigma is not None else 0.0
        x = factoring_x(self.state.remaining, p, mu, sigma,
                        first_batch=self._batch_index == 0)
        total = max(1, math.ceil(self.state.remaining / x))
        self._batch_total = min(total, self.state.remaining)
        self._batch_left = self._batch_total
        self._batch_index += 1
        self._claimed.clear()

    def _after_assignment(self, record) -> None:
        self._batch_left -= record.size
        self._claimed.add(record.worker)
