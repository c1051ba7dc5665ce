"""Workload (task execution time) generation — Figure 2's application inputs."""

from .distributions import (
    WORKLOAD_DISTS,
    BimodalWorkload,
    ConstantWorkload,
    ExponentialWorkload,
    GammaWorkload,
    LinearWorkload,
    NormalWorkload,
    PerTaskSampling,
    TraceWorkload,
    UniformWorkload,
    Workload,
    decreasing_workload,
    increasing_workload,
    workload_from_spec,
)
from .generator import make_rng, replication_entropies
from .traces import load_trace, load_trace_workload, save_trace

__all__ = [
    "BimodalWorkload",
    "ConstantWorkload",
    "ExponentialWorkload",
    "GammaWorkload",
    "LinearWorkload",
    "NormalWorkload",
    "PerTaskSampling",
    "TraceWorkload",
    "UniformWorkload",
    "WORKLOAD_DISTS",
    "Workload",
    "decreasing_workload",
    "increasing_workload",
    "load_trace",
    "load_trace_workload",
    "make_rng",
    "replication_entropies",
    "save_trace",
    "workload_from_spec",
]
