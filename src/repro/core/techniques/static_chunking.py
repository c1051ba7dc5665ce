"""STAT — static chunking.

The coarse-grained baseline: ``ceil(n / p)`` tasks are assigned to each PE
in a single scheduling operation before (conceptually) the computation
starts.  Scheduling overhead is negligible (exactly ``p`` scheduling
operations) but load imbalance is maximal among the techniques when task
times vary.
"""

from __future__ import annotations

import numpy as np

from ..base import Scheduler
from ..registry import register


@register
class StaticChunking(Scheduler):
    """Assign ``ceil(n/p)`` tasks per request; at most ``p`` requests."""

    name = "stat"
    label = "STAT"
    requires = frozenset({"p", "n"})
    deterministic_schedule = True

    def _chunk_size(self, worker: int) -> int:
        return self._ceil_div(self.params.n, self.params.p)

    def _chunk_schedule(self) -> tuple[np.ndarray, np.ndarray]:
        n, p = self.params.n, self.params.p
        return self._constant_schedule(n, self._ceil_div(n, p))
