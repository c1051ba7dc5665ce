"""Experiment building blocks behind the paper's artifacts.

The artifacts themselves — which runs, with which parameters, rendered
how — are defined once, in :mod:`repro.figures.registry`, whose
producers build their tasks from the constants and helpers here.
"""

from .bold_experiments import (
    BOLD_H,
    BOLD_MU,
    BOLD_PE_COUNTS,
    BOLD_SIGMA,
    BOLD_TASK_COUNTS,
    BOLD_TECHNIQUES,
    bold_cells,
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
from .tables import (
    format_table2,
    format_table3,
    table2_matches_publication,
    table2_rows,
)
from .tss_experiments import (
    TSS_PE_COUNTS,
    TSS_WORKLOAD_SHAPES,
    bbn_gp1000_platform,
    remote_access_slowdown,
    tss_reproduction_verdicts,
    tss_run,
    tss_workload,
)

__all__ = [
    "BOLD_H",
    "BOLD_MU",
    "BOLD_PE_COUNTS",
    "BOLD_SIGMA",
    "BOLD_TASK_COUNTS",
    "BOLD_TECHNIQUES",
    "RunTask",
    "TSS_PE_COUNTS",
    "TSS_WORKLOAD_SHAPES",
    "bbn_gp1000_platform",
    "bold_cells",
    "bold_reference",
    "bold_reference_available",
    "bold_reference_metadata",
    "format_table",
    "format_table2",
    "format_table3",
    "generate_bold_reference",
    "remote_access_slowdown",
    "run_campaign",
    "run_replicated",
    "series_table",
    "table2_matches_publication",
    "table2_rows",
    "tss_published_speedups",
    "tss_reproduction_verdicts",
    "tss_run",
    "tss_workload",
]
