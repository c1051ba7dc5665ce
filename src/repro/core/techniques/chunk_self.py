"""CSS(k) — chunk self scheduling.

A fixed, programmer-chosen chunk size ``k``.  The TSS publication
(Tzen & Ni, 1993) uses ``k = ceil(n / p)`` in its experiments, which found
that value near-optimal for uniformly distributed loops; that is the
default here when :attr:`SchedulingParams.chunk_size` is not set (making
CSS behave like STAT with round-robin ordering).
"""

from __future__ import annotations

import numpy as np

from ..base import Scheduler
from ..registry import register


@register
class ChunkSelfScheduling(Scheduler):
    """Assign a constant ``k`` tasks per request."""

    name = "css"
    label = "CSS"
    requires = frozenset({"p", "n"})
    deterministic_schedule = True

    def __init__(self, params, k: int | None = None):
        super().__init__(params)
        if k is None:
            k = params.chunk_size
        if k is None:
            k = max(1, self._ceil_div(params.n, params.p))
        if k < 1:
            raise ValueError(f"CSS chunk size must be >= 1, got {k}")
        self.k = int(k)

    def _chunk_size(self, worker: int) -> int:
        return self.k

    def _chunk_schedule(self) -> tuple[np.ndarray, np.ndarray]:
        return self._constant_schedule(self.params.n, self.k)
