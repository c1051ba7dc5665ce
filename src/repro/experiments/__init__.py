"""Experiment building blocks behind the paper's artifacts.

The artifacts themselves — which runs, with which parameters, rendered
how — are defined once, in :mod:`repro.figures.registry`, whose
producers build their tasks from the constants and helpers here.
"""

from .._exports import lazy_exports

_EXPORTS = {
    "bold_experiments": (
        "BOLD_H",
        "BOLD_MU",
        "BOLD_PE_COUNTS",
        "BOLD_SIGMA",
        "BOLD_TASK_COUNTS",
        "BOLD_TECHNIQUES",
        "bold_cells",
    ),
    "published": (
        "bold_reference",
        "bold_reference_available",
        "bold_reference_metadata",
        "generate_bold_reference",
        "tss_published_speedups",
    ),
    "report": ("format_table", "series_table"),
    "runner": ("RunTask", "run_campaign", "run_replicated"),
    "tables": (
        "format_table2",
        "format_table3",
        "table2_matches_publication",
        "table2_rows",
    ),
    "tss_experiments": (
        "TSS_PE_COUNTS",
        "TSS_WORKLOAD_SHAPES",
        "bbn_gp1000_platform",
        "remote_access_slowdown",
        "tss_reproduction_verdicts",
        "tss_run",
        "tss_workload",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
