"""TSS — trapezoid self scheduling (Tzen & Ni, 1993).

Chunk sizes decrease *linearly* from a first size ``f`` to a last size
``l``.  With defaults ``f = ceil(n / (2p))`` and ``l = 1``:

* number of chunks  ``N = ceil(2 n / (f + l))``
* decrement         ``delta = (f - l) / (N - 1)``

The i-th chunk has size ``f - i * delta`` (rounded); the linear decrease
makes the chunk computation cheap (one subtraction) compared to GSS's
division, which is why Tzen & Ni could implement it with a single atomic
fetch-and-add.  Per Table II the technique requires ``p``, ``n``, ``f``
and ``l``.
"""

from __future__ import annotations

from typing import Iterator

from ..base import Scheduler
from ..registry import register


@register
class TrapezoidSelfScheduling(Scheduler):
    """Assign linearly decreasing chunks from ``f`` down to ``l``."""

    name = "tss"
    label = "TSS"
    requires = frozenset({"p", "n", "f", "l"})
    deterministic_schedule = True

    def __init__(
        self,
        params,
        first_chunk: int | None = None,
        last_chunk: int | None = None,
    ):
        super().__init__(params)
        n, p = params.n, params.p
        f = first_chunk if first_chunk is not None else params.first_chunk
        l = last_chunk if last_chunk is not None else params.last_chunk
        if f is None:
            f = max(1, self._ceil_div(n, 2 * p))
        if l is None:
            l = 1
        if l > f:
            raise ValueError(f"TSS requires l <= f, got f={f}, l={l}")
        self.first = int(f)
        self.last = int(l)
        if n > 0:
            num_chunks = self._ceil_div(2 * n, self.first + self.last)
        else:
            num_chunks = 1
        self.num_planned_chunks = max(1, num_chunks)
        if self.num_planned_chunks > 1:
            self.delta = (self.first - self.last) / (self.num_planned_chunks - 1)
        else:
            self.delta = 0.0
        # The running (real-valued) size of the next chunk.
        self._current = float(self.first)

    def _chunk_size(self, worker: int) -> int:
        size = max(self.last, int(round(self._current)))
        return max(1, size)

    def _after_assignment(self, record) -> None:
        self._current -= self.delta
        if self._current < self.last:
            self._current = float(self.last)

    def _chunk_sizes(self) -> Iterator[int]:
        # Replays _chunk_size/_after_assignment arithmetic exactly
        # (including the round() and the floor at ``l``) without
        # touching the instance's state.
        remaining = self.params.n
        current = float(self.first)
        while remaining > 0:
            size = max(1, max(self.last, int(round(current))))
            size = min(size, remaining)
            yield size
            remaining -= size
            current -= self.delta
            if current < self.last:
                current = float(self.last)
