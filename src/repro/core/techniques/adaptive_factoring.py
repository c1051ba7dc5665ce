"""AF — adaptive factoring (Banicescu & Liu, 2000).

The most general factoring-family technique: it estimates, *per PE and at
execution time*, the mean ``mu_i`` and variance ``sigma_i^2`` of the task
execution times from the chunks that PE has completed, then sizes PE
``i``'s next chunk as

.. math::

   D = \\sum_j \\sigma_j^2 / \\mu_j \\qquad
   T = \\frac{R}{\\sum_j 1 / \\mu_j}

   chunk_i = \\frac{D + 2T - \\sqrt{D^2 + 4 D T}}{2 \\mu_i}

(Banicescu & Liu 2000, as restated in later AF publications.)  With exact
homogeneous estimates this reduces to factoring.

Estimator note: the scheduler receives chunk-level feedback
``(size, elapsed)``.  Each chunk contributes the observation
``elapsed / size`` (the chunk's mean task time).  Since the variance of a
mean of ``s`` tasks is ``sigma^2 / s``, the per-task variance is estimated
as the running variance of chunk means multiplied by the running average
chunk size.  Until a PE has at least two completed chunks it is
bootstrapped with FAC2-style chunks (``ceil(R / (2p))``), the standard
warm-up in AF implementations.
"""

from __future__ import annotations

import math
from typing import ClassVar

import numpy as np

from ..base import Scheduler
from ..registry import register
from ..stepping import SteppingState, ceil_div, ordered_sum


class _RunningEstimates:
    """Welford-style running mean/variance of chunk-mean observations."""

    __slots__ = ("count", "mean", "m2", "task_total")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.task_total = 0

    def record(self, size: int, elapsed: float) -> None:
        if size <= 0:
            return
        x = elapsed / size
        self.count += 1
        self.task_total += size
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (x - self.mean)

    @property
    def mu(self) -> float | None:
        return self.mean if self.count >= 1 and self.mean > 0 else None

    @property
    def sigma_sq(self) -> float | None:
        """Per-task variance estimate (see module docstring)."""
        if self.count < 2:
            return None
        chunk_mean_var = self.m2 / (self.count - 1)
        avg_chunk = self.task_total / self.count
        return chunk_mean_var * avg_chunk


def af_chunk(remaining: int, mu: list[float], sigma_sq: list[float],
             worker: int) -> int:
    """The AF chunk size for ``worker`` given per-PE estimates."""
    if remaining <= 0:
        return 0
    d = sum(s / m for s, m in zip(sigma_sq, mu))
    t = remaining / sum(1.0 / m for m in mu)
    disc = d * d + 4.0 * d * t
    size = (d + 2.0 * t - math.sqrt(disc)) / (2.0 * mu[worker])
    return max(1, math.ceil(size))


class _AFSteppingState(SteppingState):
    """Batched AF state: the per-PE Welford estimates as ``(R, p)`` arrays.

    A replication leaves warm-up only when every PE has
    ``WARMUP_CHUNKS`` completed chunks and a positive mean, exactly as
    the scalar ``_chunk_size`` gate; the AF formula itself vectorizes
    bit-exactly (sequential sums via :func:`ordered_sum`, IEEE sqrt).
    """

    def __init__(self, prototype: "AdaptiveFactoring", reps: int):
        super().__init__(prototype, reps)
        p = self.params.p
        self._p = p
        self._warmup = prototype.WARMUP_CHUNKS
        self._count = np.zeros((reps, p), dtype=np.int64)
        self._mean = np.zeros((reps, p))
        self._m2 = np.zeros((reps, p))
        self._task_total = np.zeros((reps, p), dtype=np.int64)

    def chunk_sizes(self, rows, workers, remaining, outstanding):
        count = self._count[rows]
        warm = (count < self._warmup).any(axis=1) | (
            self._mean[rows] <= 0
        ).any(axis=1)
        sizes = np.empty(rows.size, dtype=np.int64)
        if warm.any():
            rem = remaining[warm]
            sizes[warm] = np.maximum(ceil_div(rem, 2 * self._p), 1)
        ready = ~warm
        if ready.any():
            idx = rows[ready]
            mu = self._mean[idx]
            sigma_sq = (self._m2[idx] / (self._count[idx] - 1)) * (
                self._task_total[idx] / self._count[idx]
            )
            d = ordered_sum(sigma_sq / mu)
            t = remaining[ready] / ordered_sum(1.0 / mu)
            disc = d * d + 4.0 * d * t
            size = (d + 2.0 * t - np.sqrt(disc)) / (
                2.0 * mu[np.arange(idx.size), workers[ready]]
            )
            sizes[ready] = np.maximum(np.ceil(size), 1.0).astype(np.int64)
        return sizes

    def record_finished(self, rows, workers, sizes, elapsed):
        x = elapsed / sizes
        self._count[rows, workers] += 1
        count = self._count[rows, workers]
        self._task_total[rows, workers] += sizes
        delta = x - self._mean[rows, workers]
        self._mean[rows, workers] += delta / count
        # Welford: the second factor uses the *updated* mean.
        self._m2[rows, workers] += delta * (x - self._mean[rows, workers])


@register
class AdaptiveFactoring(Scheduler):
    """Factoring with per-PE mean/variance estimated at execution time."""

    name = "af"
    label = "AF"
    requires = frozenset({"p", "r"})
    adaptive: ClassVar[bool] = True
    stepping_state = _AFSteppingState

    #: minimum completed chunks per PE before its estimates are trusted
    WARMUP_CHUNKS = 2

    def __init__(self, params):
        super().__init__(params)
        self._estimates = [_RunningEstimates() for _ in range(params.p)]

    def _chunk_size(self, worker: int) -> int:
        est = self._estimates
        if any(e.count < self.WARMUP_CHUNKS for e in est):
            return self._warmup_chunk()
        mu = [e.mu for e in est]
        sigma_sq = [e.sigma_sq for e in est]
        if any(m is None or m <= 0 for m in mu) or any(
            s is None for s in sigma_sq
        ):
            return self._warmup_chunk()
        return af_chunk(self.state.remaining, mu, sigma_sq, worker)

    def _warmup_chunk(self) -> int:
        return max(1, self._ceil_div(self.state.remaining, 2 * self.params.p))

    def _after_completion(self, worker: int, size: int, elapsed: float) -> None:
        self._estimates[worker].record(size, elapsed)

    def estimates_for(self, worker: int) -> tuple[float | None, float | None]:
        """Current (mu, sigma^2) estimates for ``worker`` (None = no data)."""
        e = self._estimates[worker]
        return e.mu, e.sigma_sq
