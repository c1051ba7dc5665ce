"""Experiment runners behind the paper's artifacts.

The artifacts themselves — which experiment, with which parameters,
rendered how — are defined once, in :mod:`repro.figures.registry`.
"""

from .bold_experiments import (
    BOLD_H,
    BOLD_MU,
    BOLD_PE_COUNTS,
    BOLD_SIGMA,
    BOLD_TASK_COUNTS,
    BOLD_TECHNIQUES,
    BoldExperimentResult,
    FacOutlierResult,
    compare_to_reference,
    fac_outlier_study,
    run_bold_experiment,
)
from .persistence import (
    CampaignComparison,
    CampaignRecord,
    ExperimentSeries,
    compare_campaigns,
    regression_check,
)
from .published import (
    bold_reference,
    bold_reference_available,
    bold_reference_metadata,
    generate_bold_reference,
    tss_published_speedups,
)
from .report import format_table, series_table, write_csv
from .runner import RunTask, run_campaign, run_replicated
from .scalability import (
    ScalingResult,
    efficiency_report,
    run_scaling_study,
)
from .tables import (
    format_table2,
    format_table3,
    table2_matches_publication,
    table2_rows,
)
from .tss_experiments import (
    TSS_PE_COUNTS,
    TSS_WORKLOAD_SHAPES,
    TssExperimentResult,
    bbn_gp1000_platform,
    remote_access_slowdown,
    run_css_k_sweep,
    run_remote_ratio_study,
    run_tss_experiment,
    run_tss_workload_study,
    tss_reproduction_verdicts,
    tss_workload,
)

__all__ = [
    "BOLD_H",
    "BOLD_MU",
    "BOLD_PE_COUNTS",
    "BOLD_SIGMA",
    "BOLD_TASK_COUNTS",
    "BOLD_TECHNIQUES",
    "BoldExperimentResult",
    "CampaignComparison",
    "CampaignRecord",
    "ExperimentSeries",
    "compare_campaigns",
    "regression_check",
    "FacOutlierResult",
    "RunTask",
    "ScalingResult",
    "TSS_PE_COUNTS",
    "TSS_WORKLOAD_SHAPES",
    "TssExperimentResult",
    "efficiency_report",
    "remote_access_slowdown",
    "run_css_k_sweep",
    "run_remote_ratio_study",
    "run_scaling_study",
    "run_tss_workload_study",
    "tss_workload",
    "bbn_gp1000_platform",
    "bold_reference",
    "bold_reference_available",
    "bold_reference_metadata",
    "compare_to_reference",
    "fac_outlier_study",
    "format_table",
    "format_table2",
    "format_table3",
    "generate_bold_reference",
    "run_bold_experiment",
    "run_campaign",
    "run_replicated",
    "run_tss_experiment",
    "series_table",
    "table2_matches_publication",
    "table2_rows",
    "tss_published_speedups",
    "tss_reproduction_verdicts",
    "write_csv",
]
