"""Replica of Hagerup's (1997) chunk-level direct simulator."""

from .accounting import OverheadModel, average_wasted_time
from .batch import BatchDirectSimulator
from .faults import (
    AllWorkersFailedError,
    CompositeFluctuation,
    CyclicFluctuation,
    FailStop,
    Fluctuation,
    LognormalFluctuation,
    SimulationError,
    StepFluctuation,
)
from .simulator import ChunkExecution, DirectSimulator, RunResult

__all__ = [
    "AllWorkersFailedError",
    "BatchDirectSimulator",
    "ChunkExecution",
    "CompositeFluctuation",
    "CyclicFluctuation",
    "DirectSimulator",
    "FailStop",
    "Fluctuation",
    "LognormalFluctuation",
    "OverheadModel",
    "RunResult",
    "SimulationError",
    "StepFluctuation",
    "average_wasted_time",
]
