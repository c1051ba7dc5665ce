"""Extended DLS techniques from the follow-on literature.

The paper verifies the eight classic non-adaptive techniques; the DLS
line of work it belongs to (and the LB4OMP library of the same group)
carries several further published techniques.  They are provided here so
the library covers the canon:

* **TFSS** — trapezoid factoring self scheduling (Chronopoulos et al.,
  2001): TSS's linear decrease applied per *batch* of ``p`` equal
  chunks; the batch chunk is the mean of the next ``p`` trapezoid steps.
* **FISS** — fixed increase self scheduling (Philip & Das, 1997): chunk
  sizes *increase* linearly over a fixed number of batches, starting
  from a FAC2-style initial chunk.
* **VISS** — variable increase self scheduling (Philip & Das, 1997):
  chunk sizes increase with geometrically decreasing increments
  (a mirrored FAC2).
* **RND** — uniformly random chunk sizes within ``[min, max]``; the
  baseline used in LB4OMP's technique sweeps.
* **PLS** — performance-based loop scheduling (Srivastava et al., 2012):
  a static fraction (the *SWR*, static workload ratio) is chunked evenly
  up front, the dynamic remainder falls back to GSS.
"""

from __future__ import annotations

import math

import numpy as np

from ..base import Scheduler
from ..registry import register
from ..stepping import SteppingState, ceil_div


@register
class TrapezoidFactoring(Scheduler):
    """TFSS: batched TSS — equal chunks per batch, trapezoid decrease."""

    name = "tfss"
    label = "TFSS"
    requires = frozenset({"p", "n", "f", "l"})
    deterministic_schedule = True

    def __init__(self, params, first_chunk: int | None = None,
                 last_chunk: int | None = None):
        super().__init__(params)
        n, p = params.n, params.p
        f = first_chunk if first_chunk is not None else params.first_chunk
        l = last_chunk if last_chunk is not None else params.last_chunk
        if f is None:
            f = max(1, self._ceil_div(n, 2 * p))
        if l is None:
            l = 1
        if l > f:
            raise ValueError(f"TFSS requires l <= f, got f={f}, l={l}")
        self.first = int(f)
        self.last = int(l)
        steps = max(1, self._ceil_div(2 * n, self.first + self.last))
        self.delta = (
            (self.first - self.last) / (steps - 1) if steps > 1 else 0.0
        )
        self._current = float(self.first)
        self._batch_left = 0
        self._batch_chunk = 0

    def _chunk_size(self, worker: int) -> int:
        if self._batch_left <= 0:
            self._start_batch()
        return min(self._batch_chunk, self._batch_left)

    def _start_batch(self) -> None:
        p = self.params.p
        # Mean of the next p trapezoid steps = current - delta*(p-1)/2.
        mean = self._current - self.delta * (p - 1) / 2.0
        chunk = max(self.last, int(round(mean)))
        self._batch_chunk = max(1, chunk)
        self._batch_left = min(self._batch_chunk * p, self.state.remaining)
        self._current = max(float(self.last), self._current - self.delta * p)

    def _after_assignment(self, record) -> None:
        self._batch_left -= record.size


@register
class FixedIncrease(Scheduler):
    """FISS: linearly increasing chunks over a fixed batch budget."""

    name = "fiss"
    label = "FISS"
    requires = frozenset({"p", "n"})
    deterministic_schedule = True

    #: number of batches the schedule is spread over (Philip & Das use a
    #: small constant; 4 is LB4OMP's default)
    BATCHES = 4

    def __init__(self, params, batches: int | None = None):
        super().__init__(params)
        b = self.BATCHES if batches is None else batches
        if b < 1:
            raise ValueError(f"batches must be >= 1, got {b}")
        self.batches = b
        n, p = params.n, params.p
        # First chunk as in FAC2-style halving over the batch budget,
        # then a constant increment per batch such that all n tasks are
        # covered: sum over batches of p*(c0 + j*inc) = n.
        self.c0 = max(1, n // ((2 + self.batches) * p) or 1)
        if self.batches > 1:
            numer = n - self.batches * p * self.c0
            denom = p * (self.batches * (self.batches - 1) // 2)
            self.increment = max(0, math.ceil(numer / denom)) if denom else 0
        else:
            self.increment = 0
        self._batch_index = 0
        self._batch_left = 0
        self._batch_chunk = 0

    def _chunk_size(self, worker: int) -> int:
        if self._batch_left <= 0:
            self._start_batch()
        return min(self._batch_chunk, self._batch_left)

    def _start_batch(self) -> None:
        chunk = self.c0 + self._batch_index * self.increment
        self._batch_chunk = max(1, chunk)
        self._batch_left = min(
            self._batch_chunk * self.params.p, self.state.remaining
        )
        self._batch_index += 1

    def _after_assignment(self, record) -> None:
        self._batch_left -= record.size


@register
class VariableIncrease(Scheduler):
    """VISS: chunk sizes increase with halving increments."""

    name = "viss"
    label = "VISS"
    requires = frozenset({"p", "n"})
    deterministic_schedule = True

    def __init__(self, params):
        super().__init__(params)
        n, p = params.n, params.p
        self.c0 = max(1, self._ceil_div(n, 4 * p))
        self._chunk = self.c0
        self._step = self.c0
        self._batch_left = 0

    def _chunk_size(self, worker: int) -> int:
        if self._batch_left <= 0:
            self._start_batch()
        return min(self._chunk, self._batch_left)

    def _start_batch(self) -> None:
        if self._batch_left == 0 and self.state.scheduled_chunks:
            # chunk_{j+1} = chunk_j + step/2, step halves each batch
            self._step = max(1, self._step // 2)
            self._chunk = self._chunk + self._step
        self._batch_left = min(
            self._chunk * self.params.p, self.state.remaining
        )

    def _after_assignment(self, record) -> None:
        self._batch_left -= record.size


class _RNDSteppingState(SteppingState):
    """Batched RND state: one shared size sequence, one draw per round.

    Every replication's scheduler is built with the *same* ``seed``
    kwarg, and RND's size sequence depends only on its own RNG — not on
    worker identity or timing — so every scalar run draws the same
    sequence.  Every live replication takes one chunk per round, so
    round ``k`` is each live replication's ``k``-th scheduling
    operation: the state draws one size per round, with the scalar
    call, and serves it to every live replication (the state's RNG
    restarts from the seed per block, exactly as each scalar run's
    does).
    """

    def __init__(self, prototype: RandomChunk, reps: int):
        super().__init__(prototype, reps)
        self._low = prototype.low
        self._high = prototype.high
        self._rng = np.random.default_rng(prototype._seed)

    def chunk_sizes(self, rows, workers, remaining, outstanding):
        size = int(self._rng.integers(self._low, self._high + 1))
        return np.full(rows.size, size, dtype=np.int64)


@register
class RandomChunk(Scheduler):
    """RND: uniformly random chunk sizes in ``[min_chunk, n/(2p)]``.

    A stochastic baseline (as used in the LB4OMP sweeps).  The generator
    is seeded from the ``seed`` argument so runs stay reproducible.
    """

    name = "rnd"
    label = "RND"
    requires = frozenset({"p", "n"})
    stepping_state = _RNDSteppingState

    def __init__(self, params, seed: int = 0):
        super().__init__(params)
        self.low = max(1, params.min_chunk)
        self.high = max(self.low, params.n // (2 * params.p))
        self._seed = seed
        self._rng = np.random.default_rng(seed)

    def _chunk_size(self, worker: int) -> int:
        return int(self._rng.integers(self.low, self.high + 1))


class _PLSSteppingState(SteppingState):
    """Batched PLS state: the per-worker static-prefix served flags.

    Worker-dependent: the first request of each PE gets the static
    chunk, later requests fall back to GSS — so the kernel's argmin pop
    order decides *which* request is a PE's first, exactly as the
    scalar heap does.
    """

    def __init__(self, prototype: PerformanceLoopScheduling, reps: int):
        super().__init__(prototype, reps)
        self._p = self.params.p
        self._static = prototype._static_chunk
        self._served = np.zeros((reps, self.params.p), dtype=bool)

    def chunk_sizes(self, rows, workers, remaining, outstanding):
        dynamic = np.maximum(ceil_div(remaining, self._p), 1)
        if self._static <= 0:
            return dynamic
        fresh = ~self._served[rows, workers]
        return np.where(fresh, self._static, dynamic)

    def after_assignment(self, rows, workers, sizes):
        if self._static <= 0:
            return
        mark = ~self._served[rows, workers] & (sizes <= self._static)
        self._served[rows[mark], workers[mark]] = True


@register
class PerformanceLoopScheduling(Scheduler):
    """PLS: a static prefix, then guided dynamic scheduling.

    The static workload ratio (SWR) fraction of the tasks is divided
    evenly over the PEs up front (one chunk each); the remainder is
    scheduled dynamically with GSS.  SWR defaults to 0.5.
    """

    name = "pls"
    label = "PLS"
    requires = frozenset({"p", "n", "r"})
    stepping_state = _PLSSteppingState

    def __init__(self, params, swr: float = 0.5):
        super().__init__(params)
        if not 0.0 <= swr <= 1.0:
            raise ValueError(f"swr must be in [0, 1], got {swr}")
        self.swr = swr
        static_total = int(params.n * swr)
        self._static_chunk = static_total // params.p
        self._static_served: set[int] = set()

    def _chunk_size(self, worker: int) -> int:
        if (
            self._static_chunk > 0
            and worker not in self._static_served
        ):
            return self._static_chunk
        return max(1, self._ceil_div(self.state.remaining, self.params.p))

    def _after_assignment(self, record) -> None:
        if (
            self._static_chunk > 0
            and record.worker not in self._static_served
            and record.size <= self._static_chunk
        ):
            self._static_served.add(record.worker)
