"""Task execution time distributions (Figure 2: "Task Execution Times").

A :class:`Workload` produces the execution times of tasks ``start ..
start+size-1``.  Three access paths exist:

* :meth:`Workload.sample` — per-task times (faithful path);
* :meth:`Workload.chunk_time` — the sum of one chunk's task times, the
  per-chunk draw of the scalar simulators and the stepping kernel: one
  summed :meth:`~Workload.sample` call, or an exact closed form
  (constant → ``k * value``; exponential → ``Gamma(k, mean)``), which
  is statistically identical and faster;
* :meth:`Workload.chunk_times_batch` — one replication's consecutive
  chunks at once, the draw of a precomputed schedule: the values and
  RNG state of :meth:`~Workload.chunk_time` called chunk by chunk.

So a replication's chunk times are the same draws from its generator
whichever path takes them (``tests/test_batch_kernel.py``).

Stationary workloads ignore ``start``; the position-dependent ones
(increasing, decreasing, trace) use it, which is why chunk boundaries are
expressed as ``(start, size)`` pairs everywhere in the simulators.
"""

from __future__ import annotations

import itertools
import math
from abc import ABC, abstractmethod

import numpy as np


def _validate_chunks(
    starts: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Normalise and validate ``chunk_times_batch`` arguments."""
    starts = np.asarray(starts, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    if starts.ndim != 1 or sizes.ndim != 1 or starts.size != sizes.size:
        raise ValueError(
            f"starts and sizes must be equal-length 1-D arrays, got "
            f"shapes {starts.shape} and {sizes.shape}"
        )
    return starts, sizes


class Workload(ABC):
    """Distribution of task execution times, in seconds."""

    #: True when task times depend on the task index.
    position_dependent: bool = False

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

        Sums one :meth:`sample` call.  An override must return the value
        :meth:`chunk_times_batch` returns for the one chunk and leave
        the RNG in the same state.
        """
        if size <= 0:
            return 0.0
        return float(self.sample(start, size, rng).sum())

    def chunk_times_batch(
        self,
        starts: np.ndarray,
        sizes: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """The chunk times of one replication's consecutive chunks.

        Chunk ``c`` covers tasks ``starts[c] .. starts[c]+sizes[c]-1``,
        and each chunk starts where the one before it ends, as in a
        precomputed schedule.  Returns a ``(C,)`` array equal to
        :meth:`chunk_time` called chunk by chunk, and leaves the RNG in
        the same state, so consecutive chunk ranges drawn in successive
        calls draw as one call over all of them.

        The default draws every task time with one :meth:`sample` call,
        so its memory is the call's tasks.  Each run of ``count``
        consecutive chunks of one size is a ``(count, size)`` view of
        those tasks, summed along its rows; NumPy sums each row as it
        sums a 1-D array, so every chunk sum equals :meth:`chunk_time`'s
        ``.sum()``.
        """
        starts, sizes = _validate_chunks(starts, sizes)
        sizes = np.maximum(sizes, 0)
        out = np.zeros(sizes.size)
        if not sizes.any():
            return out
        offsets = np.cumsum(sizes) - sizes
        if self.position_dependent and np.any(starts - starts[0] != offsets):
            raise ValueError("chunks must be consecutive")
        tasks = self.sample(
            int(starts[0]), int(offsets[-1] + sizes[-1]), rng
        )
        edges = (np.flatnonzero(np.diff(sizes)) + 1).tolist()
        for lo, hi in itertools.pairwise([0, *edges, sizes.size]):
            size = int(sizes[lo])
            if size:
                first = int(offsets[lo])
                out[lo:hi] = tasks[first:first + (hi - lo) * size].reshape(
                    hi - lo, size
                ).sum(axis=1)
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

    def chunk_time(self, start, size, rng) -> float:
        return float(size) * self.value if size > 0 else 0.0

    def chunk_times_batch(self, starts, sizes, rng) -> np.ndarray:
        # Exact: a chunk of k tasks always takes k * value seconds.
        starts, sizes = _validate_chunks(starts, sizes)
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

    def chunk_time(self, start, size, rng) -> float:
        if size <= 0:
            return 0.0
        return float(rng.gamma(float(size), self._mean))

    def chunk_times_batch(self, starts, sizes, rng) -> np.ndarray:
        # Sum of k iid Exp(mean) is Gamma(k, mean): one draw per chunk,
        # exact, all chunks in one vectorised call.
        starts, sizes = _validate_chunks(starts, sizes)
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

    def chunk_time(self, start, size, rng) -> float:
        if size <= 0:
            return 0.0
        return float(rng.gamma(self.shape * float(size), self.scale))

    def chunk_times_batch(self, starts, sizes, rng) -> np.ndarray:
        # Sum of k iid Gamma(a, theta) is Gamma(k a, theta): exact.
        starts, sizes = _validate_chunks(starts, sizes)
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
        if self.n == 1:
            return np.full(size, self.first)
        # first + (last - first) * clip(i / (n - 1), 0, 1), in place
        times = np.arange(start, start + size, dtype=np.float64)
        times /= self.n - 1
        np.clip(times, 0.0, 1.0, out=times)
        times *= self.last - self.first
        times += self.first
        return times

    def sample(self, start, size, rng) -> np.ndarray:
        return self._times(start, size)


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

    def chunk_time(self, start, size, rng) -> float:
        if size <= 0:
            return 0.0
        return float(self.chunk_times_batch([start], [size], rng)[0])

    def chunk_times_batch(self, starts, sizes, rng) -> np.ndarray:
        # Differences of prefix sums, for any chunks, consecutive or not.
        starts, sizes = _validate_chunks(starts, sizes)
        if sizes.size and (
            starts.min(initial=0) < 0
            or (starts + sizes).max(initial=0) > self.times.size
        ):
            raise IndexError(
                f"chunks outside trace of {self.times.size} tasks"
            )
        csum = self._prefix_sums()
        return csum[starts + np.maximum(sizes, 0)] - csum[starts]

    def _prefix_sums(self) -> np.ndarray:
        # Cached: the scalar simulators and the stepping kernel ask once
        # per chunk, the closed-form kernels once per tile.
        if not hasattr(self, "_csum"):
            self._csum = np.concatenate(([0.0], np.cumsum(self.times)))
        return self._csum


#: the distributions a ``(dist, mean)`` workload spec may name: the CLI's
#: ``--dist`` choices and the advisor's ``dist`` field
WORKLOAD_DISTS = ("constant", "exponential", "uniform", "gamma")


def workload_from_spec(dist: str, mean: float) -> Workload:
    """The workload a ``(dist, mean)`` spec describes, with mean ``mean``."""
    factories = {
        "constant": lambda: ConstantWorkload(mean),
        "exponential": lambda: ExponentialWorkload(mean),
        "uniform": lambda: UniformWorkload(0.0, 2 * mean),
        "gamma": lambda: GammaWorkload(2.0, mean / 2.0),
    }
    return factories[dist]()
