"""Task execution time distributions (Figure 2: "Task Execution Times").

A :class:`Workload` produces the execution times of tasks ``start ..
start+size-1``.  Three access paths exist:

* :meth:`Workload.sample` — per-task times (faithful path);
* :meth:`Workload.chunk_times_batch` — an ``(reps, C)`` matrix of chunk
  sums for a whole replication batch in one vectorised draw.  This is the
  *single* closed-form dispatch point: distributions with an exact
  closed-form sum override it (constant → ``k * value``; exponential →
  ``Gamma(k, mean)``), which is statistically identical and faster.
* :meth:`Workload.chunk_time` — the sum of one chunk's task times; it
  delegates to :meth:`chunk_times_batch` with ``reps=1``, so the scalar
  and batch paths share one implementation (no duplicated closed forms).
  For the closed-form distributions the delegated draw consumes the RNG
  stream identically to a scalar draw, so seeded results are unchanged.

The scalar/batch equivalence is property-tested in
``tests/test_batch_kernel.py`` and ``tests/test_distributions.py``.

Stationary workloads ignore ``start``; the position-dependent ones
(increasing, decreasing, trace) use it, which is why chunk boundaries are
expressed as ``(start, size)`` pairs everywhere in the simulators.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np


def _validate_batch(
    starts: np.ndarray, sizes: np.ndarray, reps: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Normalise and validate ``chunk_times_batch`` arguments."""
    starts = np.asarray(starts, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    if starts.ndim != 1 or sizes.ndim != 1 or starts.size != sizes.size:
        raise ValueError(
            f"starts and sizes must be equal-length 1-D arrays, got "
            f"shapes {starts.shape} and {sizes.shape}"
        )
    if int(reps) < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    return starts, sizes, int(reps)


class Workload(ABC):
    """Distribution of task execution times, in seconds."""

    #: True when task times depend on the task index.
    position_dependent: bool = False

    #: True when task times are a pure function of the task index — no
    #: RNG is consumed, so every replication (and every simulator path)
    #: produces bit-identical chunk times.  The batch stepping kernel's
    #: bit-identity contract and the result cache's per-task
    #: ``result_version`` both key off this flag.
    deterministic: bool = False

    @property
    @abstractmethod
    def mean(self) -> float:
        """Theoretical mean task time (the paper's ``mu``)."""

    @property
    @abstractmethod
    def std(self) -> float:
        """Theoretical standard deviation (the paper's ``sigma``)."""

    @abstractmethod
    def sample(self, start: int, size: int, rng: np.random.Generator) -> np.ndarray:
        """Execution times of tasks ``start .. start+size-1``."""

    def chunk_time(self, start: int, size: int, rng: np.random.Generator) -> float:
        """Total execution time of a chunk (sum of its task times).

        Delegates to :meth:`chunk_times_batch` with a single replication
        so both paths share one closed-form dispatch.
        """
        if size <= 0:
            return 0.0
        starts = np.asarray([start], dtype=np.int64)
        sizes = np.asarray([size], dtype=np.int64)
        return float(self.chunk_times_batch(starts, sizes, 1, rng)[0, 0])

    def chunk_times_batch(
        self,
        starts: np.ndarray,
        sizes: np.ndarray,
        reps: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Chunk sums for ``reps`` independent replications at once.

        Returns an ``(reps, C)`` array whose column ``c`` holds ``reps``
        independent draws of the total time of the chunk ``(starts[c],
        sizes[c])``.  The default draws per-task times through
        :meth:`sample` and sums them (the faithful path); distributions
        with an exact closed-form sum override this method, and the
        scalar :meth:`chunk_time` inherits the closed form through
        delegation.
        """
        starts, sizes, reps = _validate_batch(starts, sizes, reps)
        out = np.zeros((reps, sizes.size), dtype=np.float64)
        for c, (st, sz) in enumerate(zip(starts, sizes)):
            st, sz = int(st), int(sz)
            if sz <= 0:
                continue
            if self.position_dependent:
                for r in range(reps):
                    out[r, c] = float(self.sample(st, sz, rng).sum())
            else:
                # Stationary: one draw of reps*size task times fills the
                # column; element order matches reps successive draws.
                flat = self.sample(st, sz * reps, rng)
                out[:, c] = flat.reshape(reps, sz).sum(axis=1)
        return out

    def chunk_times_round(
        self,
        starts: np.ndarray,
        sizes: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """One independent chunk-sum per ``(starts[k], sizes[k])`` pair.

        The sampling primitive of the batched *stepping* kernel
        (:mod:`repro.directsim.batch`): one scheduling round needs one
        draw per live replication, for replication-specific chunks — a
        ``(K,)`` vector rather than :meth:`chunk_times_batch`'s
        ``(reps, C)`` matrix.  The default loops over
        :meth:`chunk_time`; distributions with a closed-form chunk sum
        override it with one vectorised draw.
        """
        starts = np.asarray(starts, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.int64)
        out = np.empty(starts.size, dtype=np.float64)
        for k in range(starts.size):
            out[k] = self.chunk_time(int(starts[k]), int(sizes[k]), rng)
        return out

    def serial_time(self, n: int) -> float:
        """Expected serial execution time of ``n`` tasks."""
        return n * self.mean

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{k}={v!r}" for k, v in vars(self).items() if not k.startswith("_")
        )
        return f"{type(self).__name__}({fields})"


class ConstantWorkload(Workload):
    """Every task takes exactly ``value`` seconds (TSS experiments)."""

    deterministic = True

    def __init__(self, value: float):
        if value <= 0:
            raise ValueError(f"task time must be positive, got {value}")
        self.value = float(value)

    @property
    def mean(self) -> float:
        return self.value

    @property
    def std(self) -> float:
        return 0.0

    def sample(self, start, size, rng) -> np.ndarray:
        return np.full(size, self.value)

    def chunk_times_batch(self, starts, sizes, reps, rng) -> np.ndarray:
        starts, sizes, reps = _validate_batch(starts, sizes, reps)
        # Exact: a chunk of k tasks always takes k * value seconds.  The
        # broadcast view is read-only but identical across replications.
        row = np.maximum(sizes, 0).astype(np.float64) * self.value
        return np.broadcast_to(row, (reps, sizes.size))

    def chunk_times_round(self, starts, sizes, rng) -> np.ndarray:
        sizes = np.asarray(sizes, dtype=np.int64)
        return np.maximum(sizes, 0).astype(np.float64) * self.value


class ExponentialWorkload(Workload):
    """Exponential task times (the BOLD experiments: mu = sigma = 1 s)."""

    def __init__(self, mean: float = 1.0):
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        self._mean = float(mean)

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def std(self) -> float:
        return self._mean

    def sample(self, start, size, rng) -> np.ndarray:
        return rng.exponential(self._mean, size=size)

    def chunk_times_batch(self, starts, sizes, reps, rng) -> np.ndarray:
        # Sum of k iid Exp(mean) is Gamma(k, mean): one draw per chunk,
        # exact; the whole (reps, C) matrix is a single vectorised call.
        starts, sizes, reps = _validate_batch(starts, sizes, reps)
        shapes = np.maximum(sizes, 0).astype(np.float64)
        return rng.gamma(shape=shapes, scale=self._mean,
                         size=(reps, sizes.size))

    def chunk_times_round(self, starts, sizes, rng) -> np.ndarray:
        sizes = np.asarray(sizes, dtype=np.int64)
        shapes = np.maximum(sizes, 0).astype(np.float64)
        return rng.gamma(shape=shapes, scale=self._mean)


class UniformWorkload(Workload):
    """Uniform task times on ``[low, high]``."""

    def __init__(self, low: float, high: float):
        if not 0 <= low <= high:
            raise ValueError(f"need 0 <= low <= high, got [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)

    @property
    def mean(self) -> float:
        return (self.low + self.high) / 2.0

    @property
    def std(self) -> float:
        return (self.high - self.low) / math.sqrt(12.0)

    def sample(self, start, size, rng) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=size)


class NormalWorkload(Workload):
    """Normal task times truncated below at ``floor`` (default 0)."""

    def __init__(self, mean: float, std: float, floor: float = 0.0):
        if mean <= 0 or std < 0:
            raise ValueError("need mean > 0 and std >= 0")
        self._mean = float(mean)
        self._std = float(std)
        self.floor = float(floor)

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def std(self) -> float:
        return self._std

    def sample(self, start, size, rng) -> np.ndarray:
        return np.maximum(rng.normal(self._mean, self._std, size=size), self.floor)


class GammaWorkload(Workload):
    """Gamma task times (shape ``k``, scale ``theta``) — heavy-ish tails."""

    def __init__(self, shape: float, scale: float):
        if shape <= 0 or scale <= 0:
            raise ValueError("need shape > 0 and scale > 0")
        self.shape = float(shape)
        self.scale = float(scale)

    @property
    def mean(self) -> float:
        return self.shape * self.scale

    @property
    def std(self) -> float:
        return math.sqrt(self.shape) * self.scale

    def sample(self, start, size, rng) -> np.ndarray:
        return rng.gamma(self.shape, self.scale, size=size)

    def chunk_times_batch(self, starts, sizes, reps, rng) -> np.ndarray:
        # Sum of k iid Gamma(a, theta) is Gamma(k a, theta): exact.
        starts, sizes, reps = _validate_batch(starts, sizes, reps)
        shapes = self.shape * np.maximum(sizes, 0).astype(np.float64)
        return rng.gamma(shapes, self.scale, size=(reps, sizes.size))

    def chunk_times_round(self, starts, sizes, rng) -> np.ndarray:
        sizes = np.asarray(sizes, dtype=np.int64)
        shapes = self.shape * np.maximum(sizes, 0).astype(np.float64)
        return rng.gamma(shapes, self.scale)


class BimodalWorkload(Workload):
    """Mixture of two task classes (fast with prob. ``p_fast``, else slow)."""

    def __init__(self, fast: float, slow: float, p_fast: float = 0.5):
        if fast <= 0 or slow <= 0:
            raise ValueError("task times must be positive")
        if not 0 < p_fast < 1:
            raise ValueError("p_fast must be strictly between 0 and 1")
        self.fast = float(fast)
        self.slow = float(slow)
        self.p_fast = float(p_fast)

    @property
    def mean(self) -> float:
        return self.p_fast * self.fast + (1 - self.p_fast) * self.slow

    @property
    def std(self) -> float:
        m = self.mean
        ex2 = self.p_fast * self.fast**2 + (1 - self.p_fast) * self.slow**2
        return math.sqrt(max(0.0, ex2 - m * m))

    def sample(self, start, size, rng) -> np.ndarray:
        choice = rng.random(size) < self.p_fast
        return np.where(choice, self.fast, self.slow)


class LinearWorkload(Workload):
    """Deterministic linearly varying task times (Tzen & Ni's
    "decreasing" / "increasing" workloads).

    Task ``i`` of ``n`` takes ``first + (last - first) * i / (n - 1)``
    seconds.
    """

    position_dependent = True
    deterministic = True

    def __init__(self, n: int, first: float, last: float):
        if n < 1:
            raise ValueError("n must be >= 1")
        if first <= 0 or last <= 0:
            raise ValueError("task times must be positive")
        self.n = int(n)
        self.first = float(first)
        self.last = float(last)

    @property
    def mean(self) -> float:
        return (self.first + self.last) / 2.0

    @property
    def std(self) -> float:
        return abs(self.last - self.first) / math.sqrt(12.0)

    def _times(self, start: int, size: int) -> np.ndarray:
        idx = np.arange(start, start + size, dtype=np.float64)
        if self.n == 1:
            return np.full(size, self.first)
        frac = np.clip(idx / (self.n - 1), 0.0, 1.0)
        return self.first + (self.last - self.first) * frac

    def sample(self, start, size, rng) -> np.ndarray:
        return self._times(start, size)

    def chunk_times_batch(self, starts, sizes, reps, rng) -> np.ndarray:
        starts, sizes, reps = _validate_batch(starts, sizes, reps)
        row = np.array([
            self._times(int(st), int(sz)).sum() if sz > 0 else 0.0
            for st, sz in zip(starts, sizes)
        ])
        return np.broadcast_to(row, (reps, sizes.size))

    def chunk_times_round(self, starts, sizes, rng) -> np.ndarray:
        starts = np.asarray(starts, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.int64)
        # The same per-chunk ``.sum()`` as the scalar path, so the
        # stepping kernel stays bit-identical to ``DirectSimulator``.
        return np.array([
            self._times(int(st), int(sz)).sum() if sz > 0 else 0.0
            for st, sz in zip(starts, sizes)
        ])


def decreasing_workload(n: int, first: float, last: float) -> LinearWorkload:
    """Tzen & Ni's decreasing workload: task times fall from first to last."""
    if first < last:
        raise ValueError("decreasing workload needs first >= last")
    return LinearWorkload(n, first, last)


def increasing_workload(n: int, first: float, last: float) -> LinearWorkload:
    """Tzen & Ni's increasing workload: task times rise from first to last."""
    if first > last:
        raise ValueError("increasing workload needs first <= last")
    return LinearWorkload(n, first, last)


class PerTaskSampling(Workload):
    """Force per-task sampling of a wrapped workload.

    Disables the wrapped distribution's closed-form chunk sums (e.g. the
    exponential's Gamma draw) so every task time is drawn individually
    and summed — the faithful path of the chunk-time sampling ablation
    (DESIGN.md §6).  This wrapper inherits the base class's per-task
    ``chunk_times_batch``/``chunk_time``, which route through
    :meth:`sample`, so the inner closed forms are never consulted.
    """

    def __init__(self, inner: Workload):
        self.inner = inner
        self.position_dependent = inner.position_dependent
        self.deterministic = inner.deterministic

    @property
    def mean(self) -> float:
        return self.inner.mean

    @property
    def std(self) -> float:
        return self.inner.std

    def sample(self, start, size, rng) -> np.ndarray:
        return self.inner.sample(start, size, rng)


class TraceWorkload(Workload):
    """Replay recorded per-task execution times (Figure 2's trace input)."""

    position_dependent = True
    deterministic = True

    def __init__(self, times: np.ndarray):
        times = np.asarray(times, dtype=np.float64)
        if times.ndim != 1 or times.size == 0:
            raise ValueError("trace must be a non-empty 1-D array")
        if np.any(times < 0):
            raise ValueError("trace task times must be non-negative")
        self.times = times

    @property
    def mean(self) -> float:
        return float(self.times.mean())

    @property
    def std(self) -> float:
        return float(self.times.std())

    def sample(self, start, size, rng) -> np.ndarray:
        if start < 0 or start + size > self.times.size:
            raise IndexError(
                f"chunk [{start}, {start + size}) outside trace of "
                f"{self.times.size} tasks"
            )
        return self.times[start:start + size]

    def chunk_times_batch(self, starts, sizes, reps, rng) -> np.ndarray:
        starts, sizes, reps = _validate_batch(starts, sizes, reps)
        if sizes.size and (
            starts.min(initial=0) < 0
            or (starts + sizes).max(initial=0) > self.times.size
        ):
            raise IndexError(
                f"chunks outside trace of {self.times.size} tasks"
            )
        csum = np.concatenate(([0.0], np.cumsum(self.times)))
        row = csum[starts + np.maximum(sizes, 0)] - csum[starts]
        return np.broadcast_to(row, (reps, sizes.size))

    def chunk_times_round(self, starts, sizes, rng) -> np.ndarray:
        starts = np.asarray(starts, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.int64)
        if sizes.size and (
            starts.min(initial=0) < 0
            or (starts + sizes).max(initial=0) > self.times.size
        ):
            raise IndexError(
                f"chunks outside trace of {self.times.size} tasks"
            )
        # Same prefix-sum differences as chunk_times_batch, cached:
        # the stepping kernel calls this once per scheduling round.
        if not hasattr(self, "_csum"):
            self._csum = np.concatenate(([0.0], np.cumsum(self.times)))
        return self._csum[starts + np.maximum(sizes, 0)] - self._csum[starts]
