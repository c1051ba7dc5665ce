"""FSC — fixed size chunking (Kruskal & Weiss, 1985).

The first published DLS technique.  The optimal fixed chunk size balances
per-chunk scheduling overhead ``h`` against the load imbalance induced by
task-time variance ``sigma``:

.. math::

   k_{opt} = \\left( \\frac{\\sqrt{2}\\, n\\, h}
                          {\\sigma\\, p\\, \\sqrt{\\ln p}} \\right)^{2/3}

(Equation from Kruskal & Weiss 1985, as restated by Hagerup 1997.)  Per
Table II the technique requires ``p``, ``n``, ``h`` and ``sigma``.

Degenerate inputs fall back conservatively: with ``sigma == 0`` or
``p == 1`` the imbalance term vanishes and the chunk is the even share
``ceil(n/p)``; with ``h == 0`` the overhead term vanishes and the formula
would drive the chunk to 0, so the chunk floors at 1 (self scheduling).
"""

from __future__ import annotations

import math

import numpy as np

from ..base import Scheduler
from ..registry import register


def optimal_fixed_chunk(n: int, p: int, h: float, sigma: float) -> int:
    """The Kruskal-Weiss optimal fixed chunk size, floored at 1."""
    if n <= 0:
        return 1
    if p <= 1 or sigma <= 0:
        return -(-n // max(p, 1))
    log_p = math.log(p)
    if log_p <= 0:
        return -(-n // p)
    k = (math.sqrt(2.0) * n * h / (sigma * p * math.sqrt(log_p))) ** (2.0 / 3.0)
    # Tiny sigma (or huge h) can push the formula past n — or past float
    # range entirely; a chunk larger than n is just "everything".
    if not math.isfinite(k) or k >= n:
        return max(1, n)
    return max(1, math.ceil(k))


@register
class FixedSizeChunking(Scheduler):
    """Assign the Kruskal-Weiss optimal fixed chunk per request."""

    name = "fsc"
    label = "FSC"
    requires = frozenset({"p", "n", "h", "sigma"})
    deterministic_schedule = True

    def __init__(self, params):
        super().__init__(params)
        sigma = params.sigma if params.sigma is not None else 0.0
        self.k = optimal_fixed_chunk(params.n, params.p, params.h, sigma)

    def _chunk_size(self, worker: int) -> int:
        return self.k

    def _chunk_schedule(self) -> tuple[np.ndarray, np.ndarray]:
        return self._constant_schedule(self.params.n, self.k)
