"""Workload (task execution time) generation — Figure 2's application inputs."""

from .._exports import lazy_exports

_EXPORTS = {
    "distributions": (
        "WORKLOAD_DISTS",
        "BimodalWorkload",
        "ConstantWorkload",
        "ExponentialWorkload",
        "GammaWorkload",
        "LinearWorkload",
        "NormalWorkload",
        "PerTaskSampling",
        "TraceWorkload",
        "UniformWorkload",
        "Workload",
        "decreasing_workload",
        "increasing_workload",
        "workload_from_spec",
    ),
    "generator": ("make_rng", "replication_entropies"),
    "traces": ("load_trace", "load_trace_workload", "save_trace"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
