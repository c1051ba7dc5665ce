"""Evaluation metrics: wasted time, speedup triple, discrepancies, summaries."""

from .convergence import (
    ConvergenceInfo,
    analyze_convergence,
    convergence_report,
    half_width,
    required_runs,
    running_mean,
)
from .discrepancy import (
    DiscrepancyRow,
    discrepancy,
    discrepancy_table,
    max_abs_relative_discrepancy,
    relative_discrepancy,
)
from .speedup import TzenNiMetrics, tzen_ni_metrics
from .stats import (
    BootstrapCI,
    EquivalenceReport,
    KsResult,
    TTestResult,
    bootstrap_ci,
    equivalence_report,
    ks_two_sample,
    welch_t_test,
)
from .summary import Summary, mean_excluding_above, summarize
from .wasted_time import OverheadModel, average_wasted_time

__all__ = [
    "BootstrapCI",
    "ConvergenceInfo",
    "analyze_convergence",
    "convergence_report",
    "half_width",
    "required_runs",
    "running_mean",
    "DiscrepancyRow",
    "EquivalenceReport",
    "KsResult",
    "OverheadModel",
    "Summary",
    "TTestResult",
    "TzenNiMetrics",
    "bootstrap_ci",
    "equivalence_report",
    "ks_two_sample",
    "welch_t_test",
    "average_wasted_time",
    "discrepancy",
    "discrepancy_table",
    "max_abs_relative_discrepancy",
    "mean_excluding_above",
    "relative_discrepancy",
    "summarize",
    "tzen_ni_metrics",
]
