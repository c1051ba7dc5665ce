"""AWF and its variants — adaptive weighted factoring (Banicescu,
Velusamy & Devaprasad 2003; Cariño & Banicescu 2008).

Weighted factoring with weights *measured at execution time* instead of
supplied a priori.  Each PE's weight derives from its weighted average
ratio (time per task), where later chunks count more:

.. math::

   \\pi_i = \\frac{\\sum_k k \\; (t_{ik} / s_{ik})}{\\sum_k k}

   w_i = p \\cdot \\frac{1 / \\pi_i}{\\sum_j 1 / \\pi_j}

and PE ``i``'s chunk is its weighted share of the FAC2 batch:
``chunk_i = ceil(w_i * R / (2 p))``.

The variants differ in *when* weights are recomputed and *what* the chunk
time includes (Cariño & Banicescu 2008; the D/E variants follow the
LB4OMP naming):

========= ============================ ==========================
variant   weight update point          chunk time includes ``h``?
========= ============================ ==========================
AWF       between time steps           no
AWF-B     after each batch             no
AWF-C     after each chunk             no
AWF-D     after each batch             yes
AWF-E     after each chunk             yes
========= ============================ ==========================

Time-stepping applications drive plain AWF through
:meth:`AdaptiveWeightedFactoring.start_timestep`, which re-arms the
scheduler with ``n`` fresh tasks while carrying the performance history
across steps.
"""

from __future__ import annotations

import math
from typing import ClassVar

import numpy as np

from ..base import Scheduler, SchedulerState
from ..registry import register
from ..stepping import SteppingState, ceil_div, ordered_sum


class _PerWorkerStats:
    """Chunk-indexed performance history of one PE."""

    __slots__ = ("weighted_ratio_sum", "index_sum", "chunk_count")

    def __init__(self) -> None:
        self.weighted_ratio_sum = 0.0
        self.index_sum = 0
        self.chunk_count = 0

    def record(self, size: int, elapsed: float) -> None:
        if size <= 0:
            return
        self.chunk_count += 1
        k = self.chunk_count
        self.weighted_ratio_sum += k * (elapsed / size)
        self.index_sum += k

    @property
    def pi(self) -> float | None:
        """Weighted average time per task; None before any data."""
        if self.index_sum == 0:
            return None
        return self.weighted_ratio_sum / self.index_sum


class _AWFSteppingState(SteppingState):
    """Batched AWF-family state: the scalar per-worker chunk-indexed
    stats and normalised weights as ``(R, p)`` arrays.

    Reads ``update_point``/``include_overhead_in_time`` and the initial
    weights off the prototype, so the five variants share this one
    state.  Plain AWF updates its weights only *between* time steps
    (``start_timestep``), which the simulators never trigger within a
    run — its weights stay frozen at their initial values and its step
    accumulators never influence chunk sizes, so they are not tracked.
    """

    def __init__(self, prototype: _AWFBase, reps: int):
        super().__init__(prototype, reps)
        p = self.params.p
        self._p = p
        self._update_point = prototype.update_point
        # The scalar path always *adds* the pad (0.0 when the variant
        # excludes h) — an exact identity for finite elapsed times.
        self._time_pad = (
            float(self.params.h)
            if prototype.include_overhead_in_time
            else 0.0
        )
        self._weights = np.tile(
            np.asarray(prototype._weights, dtype=np.float64), (reps, 1)
        )
        self._wrs = np.zeros((reps, p))            # weighted_ratio_sum
        self._index_sum = np.zeros((reps, p), dtype=np.int64)
        self._chunk_count = np.zeros((reps, p), dtype=np.int64)
        self._batch_total = np.zeros(reps, dtype=np.int64)
        self._batch_left = np.zeros(reps, dtype=np.int64)

    def _recompute_weights(self, rows: np.ndarray) -> None:
        isum = self._index_sum[rows]
        has = isum > 0
        pis = self._wrs[rows] / np.where(has, isum, 1)
        known = has & (pis > 0)
        kcount = known.sum(axis=1)
        upd = kcount > 0          # rows with no history keep old weights
        if not upd.any():
            return
        rows = rows[upd]
        pis, known, kcount = pis[upd], known[upd], kcount[upd]
        fallback = ordered_sum(np.where(known, pis, 0.0)) / kcount
        ratios = np.where(known, pis, fallback[:, None])
        inv = 1.0 / ratios
        total = ordered_sum(inv)
        self._weights[rows] = self._p * inv / total[:, None]

    def chunk_sizes(self, rows, workers, remaining, outstanding):
        need = self._batch_left[rows] <= 0
        if need.any():
            nrows = rows[need]
            rem = remaining[need]
            total = np.minimum(np.maximum(ceil_div(rem, 2), 1), rem)
            self._batch_total[nrows] = total
            self._batch_left[nrows] = total
            if self._update_point == "batch":
                self._recompute_weights(nrows)
        share = (
            self._batch_total[rows] * self._weights[rows, workers] / self._p
        )
        sizes = np.maximum(np.ceil(share), 1.0).astype(np.int64)
        return np.minimum(sizes, self._batch_left[rows])

    def after_assignment(self, rows, workers, sizes):
        self._batch_left[rows] -= sizes

    def record_finished(self, rows, workers, sizes, elapsed):
        if self._update_point == "timestep":
            return
        t = elapsed + self._time_pad
        self._chunk_count[rows, workers] += 1
        k = self._chunk_count[rows, workers]
        self._wrs[rows, workers] += k * (t / sizes)
        self._index_sum[rows, workers] += k
        if self._update_point == "chunk":
            self._recompute_weights(rows)


class _AWFBase(Scheduler):
    """Shared machinery: FAC2 batches with measured, normalised weights."""

    adaptive: ClassVar[bool] = True
    stepping_state = _AWFSteppingState
    #: whether ``record_finished`` times should have ``h`` added
    include_overhead_in_time: ClassVar[bool] = False
    #: "batch", "chunk", or "timestep"
    update_point: ClassVar[str] = "batch"

    def __init__(self, params):
        super().__init__(params)
        self._stats = [_PerWorkerStats() for _ in range(params.p)]
        if params.weights is not None:
            self._weights = [w * params.p for w in params.weights]
        else:
            self._weights = [1.0] * params.p
        self._batch_left = 0
        self._batch_total = 0

    # -- weights ---------------------------------------------------------
    def current_weights(self) -> list[float]:
        """The normalised weights in use (mean 1 across PEs)."""
        return list(self._weights)

    def _recompute_weights(self) -> None:
        pis = [s.pi for s in self._stats]
        known = [pi for pi in pis if pi is not None and pi > 0]
        if not known:
            return
        # PEs without history get the average ratio of the known ones.
        fallback = sum(known) / len(known)
        ratios = [pi if (pi is not None and pi > 0) else fallback for pi in pis]
        inv = [1.0 / r for r in ratios]
        total = sum(inv)
        p = self.params.p
        self._weights = [p * v / total for v in inv]

    # -- batching ---------------------------------------------------------
    def _chunk_size(self, worker: int) -> int:
        if self._batch_left <= 0:
            self._start_batch()
        share = self._batch_total * self._weights[worker] / self.params.p
        return min(max(1, math.ceil(share)), self._batch_left)

    def _start_batch(self) -> None:
        self._batch_total = max(1, self._ceil_div(self.state.remaining, 2))
        self._batch_total = min(self._batch_total, self.state.remaining)
        self._batch_left = self._batch_total
        if self.update_point == "batch":
            self._recompute_weights()

    def _after_assignment(self, record) -> None:
        self._batch_left -= record.size

    def _after_completion(self, worker: int, size: int, elapsed: float) -> None:
        t = elapsed + (self.params.h if self.include_overhead_in_time else 0.0)
        self._stats[worker].record(size, t)
        if self.update_point == "chunk":
            self._recompute_weights()


@register
class AdaptiveWeightedFactoring(_AWFBase):
    """AWF: weights frozen within a time step, updated between steps.

    Unlike the batch/chunk variants, the time-step variant aggregates each
    PE's performance *per step* and weights the steps linearly by their
    index — recent steps dominate, so the weights closely follow the rate
    of change in PE speed after each time step (the behaviour the original
    publication describes for time-stepping applications).
    """

    name = "awf"
    label = "AWF"
    requires = frozenset({"p", "r"})
    update_point = "timestep"

    def __init__(self, params):
        super().__init__(params)
        self.timestep = 0
        # Per-step accumulators: (time, tasks) of the step in progress.
        self._step_time = [0.0] * params.p
        self._step_tasks = [0] * params.p

    def _after_completion(self, worker: int, size: int, elapsed: float) -> None:
        # Do not feed the shared chunk-indexed stats; aggregate per step.
        self._step_time[worker] += elapsed
        self._step_tasks[worker] += size

    def start_timestep(self) -> None:
        """Begin a new time step with ``n`` fresh tasks.

        The finished step's per-PE aggregate ratios enter the step-indexed
        history, the weights are recomputed, and the scheduler is re-armed.
        """
        if self.state.outstanding:
            raise RuntimeError(
                "cannot start a time step with chunks still outstanding"
            )
        for worker in range(self.params.p):
            tasks = self._step_tasks[worker]
            if tasks > 0:
                self._stats[worker].record(tasks, self._step_time[worker])
            self._step_time[worker] = 0.0
            self._step_tasks[worker] = 0
        self._recompute_weights()
        self.state = SchedulerState(remaining=self.params.n)
        self._next_task = 0
        self._batch_left = 0
        self._batch_total = 0
        self.timestep += 1


@register
class AdaptiveWeightedFactoringB(_AWFBase):
    """AWF-B: weights updated after each batch, timing excludes ``h``."""

    name = "awf-b"
    label = "AWF-B"
    requires = frozenset({"p", "r"})
    update_point = "batch"


@register
class AdaptiveWeightedFactoringC(_AWFBase):
    """AWF-C: weights updated after each chunk, timing excludes ``h``."""

    name = "awf-c"
    label = "AWF-C"
    requires = frozenset({"p", "r"})
    update_point = "chunk"


@register
class AdaptiveWeightedFactoringD(_AWFBase):
    """AWF-D: weights updated after each batch, timing includes ``h``."""

    name = "awf-d"
    label = "AWF-D"
    requires = frozenset({"p", "r", "h"})
    update_point = "batch"
    include_overhead_in_time = True


@register
class AdaptiveWeightedFactoringE(_AWFBase):
    """AWF-E: weights updated after each chunk, timing includes ``h``."""

    name = "awf-e"
    label = "AWF-E"
    requires = frozenset({"p", "r", "h"})
    update_point = "chunk"
    include_overhead_in_time = True
