"""The BOLD-publication reproducibility experiments (Figures 5-9, Table III).

Eight DLS techniques schedule n ∈ {1024, 8192, 65536, 524288} tasks onto
p ∈ {2, 8, 64, 256, 1024} PEs; task times are exponential with
mu = sigma = 1 s; the scheduling overhead is h = 0.5 s; the metric is the
sample mean of the average wasted time over the runs (Section III-B /
IV-B of the paper).

Every caller states its run count: the artifact registry
(:mod:`repro.figures.registry`) holds the laptop-scaled counts of the
quick and full sets (the paper used 1,000 runs on an HPC cluster), and
EXPERIMENTS.md records what was actually run.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from ..scenarios import Scenario

from ..core.params import SchedulingParams
from ..metrics.summary import Summary, summarize
from ..metrics.wasted_time import OverheadModel
from ..workloads.distributions import ExponentialWorkload, Workload
from .runner import RunTask, run_replicated

#: the eight techniques of the BOLD publication, in the paper's order
BOLD_TECHNIQUES = ("STAT", "SS", "FSC", "GSS", "TSS", "FAC", "FAC2", "BOLD")
BOLD_TASK_COUNTS = (1024, 8192, 65536, 524288)
BOLD_PE_COUNTS = (2, 8, 64, 256, 1024)
BOLD_H = 0.5
BOLD_MU = 1.0
BOLD_SIGMA = 1.0
#: the paper's run count (the registry's run counts are laptop-scaled)
BOLD_PAPER_RUNS = 1000


def scheduling_params(n: int, p: int) -> SchedulingParams:
    """The BOLD experiment's parameters for one (n, p) cell."""
    return SchedulingParams(n=n, p=p, h=BOLD_H, mu=BOLD_MU, sigma=BOLD_SIGMA)


def bold_cells(
    n: int,
    pe_counts: Sequence[int],
    techniques: Sequence[str],
    runs: int,
    simulator: str,
    seed: int,
    workload: Workload | None = None,
    scenario: "Scenario | None" = None,
) -> dict[str, list[Summary]]:
    """The average wasted time of every (technique, p) cell of one n.

    Returns technique -> one :class:`Summary` per PE count.  Each cell
    is one :func:`run_replicated` sweep of ``runs`` replications under
    the POST_HOC accounting, seeded by :func:`_cell_seed`.  The
    workload defaults to the paper's exponential task times; the
    reference generation passes per-task sampling.  ``scenario``
    perturbs every cell (perturbed cells key the result cache
    separately from clean ones).
    """
    if workload is None:
        workload = ExponentialWorkload(BOLD_MU)
    cells: dict[str, list[Summary]] = {}
    for technique in techniques:
        cells[technique] = []
        for p in pe_counts:
            task = RunTask(
                technique=technique.lower(),
                params=scheduling_params(n, p),
                workload=workload,
                simulator=simulator,
                overhead_model=OverheadModel.POST_HOC,
                scenario=scenario,
            )
            results = run_replicated(
                task, runs, campaign_seed=_cell_seed(seed, n, p, technique)
            )
            cells[technique].append(
                summarize([r.average_wasted_time for r in results])
            )
    return cells


def _cell_seed(seed: int, n: int, p: int, technique: str) -> int:
    """A deterministic per-cell campaign seed (stable across processes)."""
    key = f"{seed}:{n}:{p}:{technique.upper()}".encode()
    return zlib.crc32(key)
