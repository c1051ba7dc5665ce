"""Evaluation metrics: wasted time, speedup triple, discrepancies, summaries."""

from .._exports import lazy_exports

_EXPORTS = {
    "convergence": (
        "ConvergenceInfo",
        "analyze_convergence",
        "convergence_report",
        "half_width",
        "required_runs",
        "running_mean",
    ),
    # the function ``discrepancy`` keeps its name on the package, also
    # once the submodule of the same name is imported
    "discrepancy": (
        "DiscrepancyRow",
        "discrepancy",
        "discrepancy_table",
        "max_abs_relative_discrepancy",
        "relative_discrepancy",
    ),
    "speedup": ("TzenNiMetrics", "tzen_ni_metrics"),
    "stats": (
        "BootstrapCI",
        "EquivalenceReport",
        "KsResult",
        "TTestResult",
        "bootstrap_ci",
        "equivalence_report",
        "ks_two_sample",
        "welch_t_test",
    ),
    "summary": ("Summary", "mean_excluding_above", "summarize"),
    "wasted_time": ("OverheadModel", "average_wasted_time"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
