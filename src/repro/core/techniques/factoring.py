"""FAC / FAC2 — factoring (Hummel, Schonberg & Flynn, 1992).

Tasks are scheduled in *batches*; within a batch, all ``p`` chunks have
equal size, computed so that the batch has a high probability of finishing
in balanced time.  With ``R_j`` tasks remaining at the start of batch
``j``, the batch allocates a fraction ``1 / x_j`` of them:

.. math::

   chunk_j = \\lceil R_j / (x_j \\; p) \\rceil

with (Hummel et al. 1992)

.. math::

   b_j = \\frac{p}{2 \\sqrt{R_j}} \\cdot \\frac{\\sigma}{\\mu}

   x_0 = 1 + b_0^2 + b_0 \\sqrt{b_0^2 + 2}  \\quad (first batch)

   x_j = 2 + b_j^2 + b_j \\sqrt{b_j^2 + 4}  \\quad (j \\ge 1)

As ``sigma -> 0`` this degenerates to a single STAT-like batch
(``x_0 -> 1``) followed by halving batches (``x_j -> 2``).

FAC2 is the practical variant for unknown ``mu``/``sigma`` suggested in the
same paper: fix ``x_j = 2`` so each batch allocates half of the remaining
tasks, i.e. ``chunk_j = ceil(R_j / (2 p))``.

Per Table II, FAC requires ``p``, ``r``, ``mu`` and ``sigma``; FAC2
requires only ``p`` and ``r``.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator

from ..base import Scheduler
from ..registry import register


def factoring_x(remaining: int, p: int, mu: float, sigma: float,
                first_batch: bool) -> float:
    """The factoring batch divisor ``x_j``."""
    if remaining <= 0:
        return 2.0
    if sigma <= 0 or mu <= 0:
        return 1.0 if first_batch else 2.0
    b = (p / (2.0 * math.sqrt(remaining))) * (sigma / mu)
    if first_batch:
        return 1.0 + b * b + b * math.sqrt(b * b + 2.0)
    return 2.0 + b * b + b * math.sqrt(b * b + 4.0)


class _BatchedScheduler(Scheduler):
    """Shared batch bookkeeping for the factoring family.

    A new batch begins whenever the previous batch's allocation is
    exhausted.  Subclasses provide :meth:`_batch_chunk` computing the
    per-PE chunk size for a fresh batch.
    """

    deterministic_schedule = True

    def __init__(self, params):
        super().__init__(params)
        self._batch_left = 0          # tasks still claimable in this batch
        self._batch_chunk_size = 0    # equal chunk size within the batch
        self._batch_index = 0

    def _chunk_size(self, worker: int) -> int:
        if self._batch_left <= 0:
            self._start_batch()
        return min(self._batch_chunk_size, self._batch_left)

    def _start_batch(self) -> None:
        chunk = max(1, self._batch_chunk(self.state.remaining))
        self._batch_chunk_size = chunk
        self._batch_left = min(chunk * self.params.p, self.state.remaining)
        self._batch_index += 1

    def _after_assignment(self, record) -> None:
        self._batch_left -= record.size

    def _batch_chunk(self, remaining: int) -> int:
        raise NotImplementedError

    def _chunk_sizes(self) -> Iterator[int]:
        # Closed form: per batch, p equal chunks (the last clipped to the
        # batch's allocation).  _batch_chunk may consult _batch_index
        # (FAC's first-batch x), so drive it the way _start_batch would.
        p = self.params.p
        remaining = self.params.n
        saved = self._batch_index
        try:
            self._batch_index = 0
            while remaining > 0:
                chunk = max(1, self._batch_chunk(remaining))
                batch_left = min(chunk * p, remaining)
                self._batch_index += 1
                full, rem = divmod(batch_left, chunk)
                yield from itertools.repeat(chunk, full)
                if rem:
                    yield rem
                remaining -= batch_left
        finally:
            self._batch_index = saved


@register
class Factoring(_BatchedScheduler):
    """FAC with the probabilistic ``x_j`` from known ``mu`` and ``sigma``."""

    name = "fac"
    label = "FAC"
    requires = frozenset({"p", "r", "mu", "sigma"})

    def _batch_chunk(self, remaining: int) -> int:
        p = self.params.p
        mu = self.params.mu if self.params.mu is not None else 1.0
        sigma = self.params.sigma if self.params.sigma is not None else 0.0
        x = factoring_x(remaining, p, mu, sigma, first_batch=self._batch_index == 0)
        return max(1, math.ceil(remaining / (x * p)))


@register
class Factoring2(_BatchedScheduler):
    """FAC2: each batch allocates half of the remaining tasks."""

    name = "fac2"
    label = "FAC2"
    requires = frozenset({"p", "r"})

    def _batch_chunk(self, remaining: int) -> int:
        return self._ceil_div(remaining, 2 * self.params.p)
