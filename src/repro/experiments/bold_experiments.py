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
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from ..scenarios import Scenario

from ..backends import FallbackEvent, drain_fallback_events, get_backend
from ..core.params import SchedulingParams
from ..metrics.discrepancy import DiscrepancyRow, discrepancy_table
from ..metrics.summary import Summary, mean_excluding_above, summarize
from ..metrics.wasted_time import OverheadModel
from ..workloads.distributions import ExponentialWorkload
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


@dataclass
class BoldExperimentResult:
    """Means (and summaries) of one n-task experiment across PE counts."""

    n: int
    pe_counts: tuple[int, ...]
    techniques: tuple[str, ...]
    runs: int
    simulator: str
    values: dict[str, list[float]] = field(default_factory=dict)
    summaries: dict[str, list[Summary]] = field(default_factory=dict)
    #: capability degradations recorded while running (e.g. direct-batch
    #: -> direct for the adaptive BOLD technique) — never silent
    fallbacks: list[FallbackEvent] = field(default_factory=list)

    def value(self, technique: str, p: int) -> float:
        return self.values[technique][self.pe_counts.index(p)]


def run_bold_experiment(
    n: int,
    pe_counts: Sequence[int] = BOLD_PE_COUNTS,
    techniques: Sequence[str] = BOLD_TECHNIQUES,
    *,
    runs: int,
    simulator: str = "msg",
    seed: int = 2017,
    processes: int | None = None,
    scenario: "Scenario | None" = None,
) -> BoldExperimentResult:
    """Reproduce one of the four n-task experiments (Figures 5-8 a/b).

    ``simulator`` names a registered backend; cells the backend cannot
    serve degrade along its declared fallback chain, and the recorded
    :class:`~repro.backends.FallbackEvent` objects are attached to the
    result (``result.fallbacks``) and surfaced in the ``fig5``-``fig8``
    reports.  ``scenario`` perturbs every cell with a
    :class:`repro.scenarios.Scenario` (speed fluctuations and/or
    fail-stop faults); perturbed cells key the result cache separately
    from clean ones.
    """
    get_backend(simulator)  # fail fast on unknown backends
    workload = ExponentialWorkload(BOLD_MU)
    result = BoldExperimentResult(
        n=n,
        pe_counts=tuple(pe_counts),
        techniques=tuple(techniques),
        runs=runs,
        simulator=simulator,
    )
    drain_fallback_events()  # scope the log to this experiment
    for technique in techniques:
        means: list[float] = []
        summaries: list[Summary] = []
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
                task, runs,
                campaign_seed=_cell_seed(seed, n, p, technique),
                processes=processes,
            )
            sample = [r.average_wasted_time for r in results]
            summary = summarize(sample)
            means.append(summary.mean)
            summaries.append(summary)
        result.values[technique] = means
        result.summaries[technique] = summaries
    result.fallbacks = drain_fallback_events()
    return result


def compare_to_reference(result: BoldExperimentResult) -> list[DiscrepancyRow]:
    """Figures 5c/d .. 8c/d: discrepancies against the reference values."""
    from .published import bold_reference

    reference = bold_reference(result.n)
    return discrepancy_table(result.values, reference, result.pe_counts)


@dataclass
class FacOutlierResult:
    """Figure 9's study: per-run FAC wasted times at p=2, n=524288."""

    n: int
    p: int
    runs: int
    threshold: float
    per_run: list[float]
    mean: float
    mean_excluding: float
    num_above: int
    fallbacks: tuple[FallbackEvent, ...] = ()

    @property
    def fraction_above(self) -> float:
        return self.num_above / self.runs


def fac_outlier_study(
    n: int = 524288,
    p: int = 2,
    runs: int = 1000,
    threshold: float = 400.0,
    simulator: str = "direct",
    seed: int = 1997,
    technique: str = "fac",
    processes: int | None = None,
    scenario: "Scenario | None" = None,
) -> FacOutlierResult:
    """Reproduce Figure 9: the heavy tail of FAC's per-run wasted time.

    The paper observes 15 of 1,000 runs above 400 s (1.5 %) and an
    outlier-excluded mean of 25.82 s.
    """
    get_backend(simulator)  # fail fast on unknown backends
    task = RunTask(
        technique=technique,
        params=scheduling_params(n, p),
        workload=ExponentialWorkload(BOLD_MU),
        simulator=simulator,
        overhead_model=OverheadModel.POST_HOC,
        scenario=scenario,
    )
    drain_fallback_events()  # scope the log to this study
    results = run_replicated(task, runs, campaign_seed=seed,
                             processes=processes)
    per_run = [r.average_wasted_time for r in results]
    mean = sum(per_run) / len(per_run)
    try:
        mean_excl, num_above = mean_excluding_above(per_run, threshold)
    except ValueError:
        # a perturbed machine can push every run past the outlier
        # threshold; report that instead of aborting the campaign
        mean_excl, num_above = float("nan"), len(per_run)
    return FacOutlierResult(
        n=n, p=p, runs=runs, threshold=threshold,
        per_run=per_run, mean=mean,
        mean_excluding=mean_excl, num_above=num_above,
        fallbacks=tuple(drain_fallback_events()),
    )


def _cell_seed(seed: int, n: int, p: int, technique: str) -> int:
    """A deterministic per-cell campaign seed (stable across processes)."""
    key = f"{seed}:{n}:{p}:{technique.upper()}".encode()
    return zlib.crc32(key)
