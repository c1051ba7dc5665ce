"""SS — self scheduling.

The fine-grained baseline: every single task is dynamically assigned to an
available PE.  Perfect load balance (up to one task), maximal scheduling
overhead (``n`` scheduling operations).  Per Table II of the paper, SS
requires none of the Table I parameters.
"""

from __future__ import annotations

import numpy as np

from ..base import Scheduler
from ..registry import register


@register
class SelfScheduling(Scheduler):
    """Assign exactly one task per request."""

    name = "ss"
    label = "SS"
    requires = frozenset()
    deterministic_schedule = True

    def _chunk_size(self, worker: int) -> int:
        return 1

    def _chunk_schedule(self) -> tuple[np.ndarray, np.ndarray]:
        return self._constant_schedule(self.params.n, 1)
