"""GSS(k) — guided self scheduling (Polychronopoulos & Kuck, 1987).

Each request receives ``ceil(r / p)`` tasks where ``r`` is the number of
remaining tasks, bounded below by the minimum chunk size ``k``
(``GSS(1)`` is plain GSS).  Designed for uneven PE starting times: early
requests take large chunks, the tail is fine-grained.  Per Table II the
technique requires ``p`` and ``r``.
"""

from __future__ import annotations

from typing import Iterator

from ..base import Scheduler
from ..registry import register


@register
class GuidedSelfScheduling(Scheduler):
    """Assign ``max(k_min, ceil(remaining / p))`` tasks per request."""

    name = "gss"
    label = "GSS"
    requires = frozenset({"p", "r"})
    deterministic_schedule = True

    def __init__(self, params, min_chunk: int | None = None):
        super().__init__(params)
        k = params.min_chunk if min_chunk is None else min_chunk
        if k < 1:
            raise ValueError(f"GSS minimum chunk must be >= 1, got {k}")
        self.min_chunk_size = int(k)

    @property
    def label_with_k(self) -> str:
        """Figure-style label, e.g. ``GSS(80)``."""
        return f"GSS({self.min_chunk_size})"

    def _chunk_size(self, worker: int) -> int:
        guided = self._ceil_div(self.state.remaining, self.params.p)
        return max(self.min_chunk_size, guided)

    def _chunk_sizes(self) -> Iterator[int]:
        remaining, p = self.params.n, self.params.p
        while remaining > 0:
            size = max(self.min_chunk_size, self._ceil_div(remaining, p))
            size = min(size, remaining)
            yield size
            remaining -= size
