"""Run results shared by the direct and the SimGrid-MSG-like simulators.

Both simulators produce the same observables — makespan, per-worker
compute times, chunk counts — so that the cross-validation of the two
implementations (the verification-via-reproducibility methodology of the
paper) compares like with like.

A result holds its per-PE times as ``array('d')`` buffers, 8 bytes a
PE, and declares ``__slots__`` instead of an instance ``__dict__``: the
paper replicates a cell up to 1,000 times on up to 1,024 PEs, and the
results of one such cell are held, pickled through the process pool and
cached whole.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from .core.base import ChunkRecord
from .metrics.wasted_time import OverheadModel, average_wasted_time
from .obs.stats import RunStats


@dataclass(frozen=True)
class ChunkExecution:
    """One executed chunk: scheduling record plus its simulated timing."""

    record: ChunkRecord
    start_time: float
    elapsed: float

    @property
    def end_time(self) -> float:
        return self.start_time + self.elapsed


@dataclass(slots=True)
class RunResult:
    """Outcome of a single simulated run.

    ``compute_times`` and the ``wait_times`` extra of the MSG family are
    ``array('d')``; a sequence of floats passed for either is packed
    once, on construction.  ``chunks_per_worker`` stays a list: CPython
    shares small ints, so a list of counts costs one pointer a PE, as an
    array would.
    """

    technique: str
    n: int
    p: int
    h: float
    overhead_model: OverheadModel
    makespan: float
    compute_times: array
    chunks_per_worker: list[int]
    num_chunks: int
    total_task_time: float
    chunk_log: list[ChunkExecution] = field(default_factory=list)
    #: extra per-run observables (message counts, comm time, ...)
    extras: dict = field(default_factory=dict)
    #: kernel statistics of the run (backend, fast_path, events,
    #: wall_time).  Observability metadata, not a result: excluded from
    #: equality, so bit-identical runs compare equal even across
    #: substrates.
    stats: RunStats | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.compute_times, array):
            self.compute_times = array("d", self.compute_times)
        waits = self.extras.get("wait_times")
        if waits is not None and not isinstance(waits, array):
            self.extras["wait_times"] = array("d", waits)

    @property
    def average_wasted_time(self) -> float:
        """The paper's per-run metric (Section III-B accounting)."""
        return average_wasted_time(
            self.makespan,
            self.compute_times,
            self.num_chunks,
            self.h,
            self.overhead_model,
        )

    @property
    def wasted_times(self) -> list[float]:
        """Per-worker wasted time (idle, plus overhead where in-model)."""
        return [self.makespan - c for c in self.compute_times]

    @property
    def speedup(self) -> float:
        """Serial task time over makespan (ideal = p)."""
        if self.makespan <= 0:
            return float(self.p)
        return self.total_task_time / self.makespan

    @property
    def efficiency(self) -> float:
        """Speedup divided by the number of PEs."""
        return self.speedup / self.p
