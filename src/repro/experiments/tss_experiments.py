"""The TSS-publication reproducibility experiments (Figures 3 and 4).

Experiment 1: 100,000 tasks of constant 110 µs; experiment 2: 10,000
tasks of constant 2 ms.  Techniques: SS, CSS (k = n/p), GSS(1), GSS(k)
with the experiment's larger minimum chunk (80 resp. 5), and TSS.  The
metric is speedup over the serial execution; the original (Tzen & Ni
1993) additionally reports the degree of scheduling overhead and of load
imbalancing, which this harness computes as well.

The original system is a 96-node BBN GP-1000 (shared-memory NUMA over a
multistage network).  Per Section III-A only master-worker control
messages need modelling, so the platform is a star with a small
per-message latency (:func:`bbn_gp1000_platform`); the paper's negative
result — SS and GSS(1) do *not* reproduce the 1993 hardware numbers
because SimGrid-MSG has no shared-loop-index contention — is expected to
show up here exactly the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..backends import get_backend
from ..core.params import SchedulingParams
from ..metrics.speedup import TzenNiMetrics, tzen_ni_metrics
from ..simgrid.platform import Platform, star_platform
from ..workloads.distributions import ConstantWorkload

#: PE counts matching the sweep of the original figures (x-axis 0..80)
TSS_PE_COUNTS = (2, 8, 16, 24, 32, 40, 48, 56, 64, 72, 80)

#: experiment definitions: (n, task seconds, big GSS minimum chunk)
TSS_EXPERIMENTS = {
    1: {"n": 100_000, "task_time": 110e-6, "gss_k": 80},
    2: {"n": 10_000, "task_time": 2e-3, "gss_k": 5},
}

#: default per-message latency of the BBN-GP-1000-like platform [s]
BBN_LATENCY = 2e-6
#: default link bandwidth [bytes/s] — control messages make this marginal
BBN_BANDWIDTH = 1.25e8


def bbn_gp1000_platform(p: int, latency: float = BBN_LATENCY,
                        bandwidth: float = BBN_BANDWIDTH) -> Platform:
    """A star stand-in for the GP-1000's multistage network.

    Only request/assign/finalize messages flow (Section III-A), so the
    OMEGA-variant topology reduces to a per-worker path with one
    network-traversal latency.
    """
    return star_platform(p, bandwidth=bandwidth, latency=latency)


def tss_technique_set(experiment: int) -> list[tuple[str, str, dict]]:
    """(label, registry name, kwargs) for the experiment's five curves."""
    spec = TSS_EXPERIMENTS[experiment]
    return [
        ("SS", "ss", {}),
        ("CSS", "css", {}),          # k defaults to ceil(n/p), as in [12]
        ("GSS(1)", "gss", {"min_chunk": 1}),
        (f"GSS({spec['gss_k']})", "gss", {"min_chunk": spec["gss_k"]}),
        ("TSS", "tss", {}),
    ]


@dataclass
class TssExperimentResult:
    """Speedup curves (and the full Tzen-Ni triple) of one experiment."""

    experiment: int
    n: int
    task_time: float
    pe_counts: tuple[int, ...]
    speedups: dict[str, list[float]] = field(default_factory=dict)
    metrics: dict[str, list[TzenNiMetrics]] = field(default_factory=dict)

    @property
    def overheads(self) -> dict[str, list[float]]:
        """Degree-of-scheduling-overhead curves (original Fig. 7/8 middle)."""
        return {
            k: [m.scheduling_overhead for m in ms]
            for k, ms in self.metrics.items()
        }

    @property
    def imbalances(self) -> dict[str, list[float]]:
        """Degree-of-load-imbalancing curves (original Fig. 7/8 bottom)."""
        return {
            k: [m.load_imbalance for m in ms] for k, ms in self.metrics.items()
        }


def run_tss_experiment(
    experiment: int,
    pe_counts: Sequence[int] = TSS_PE_COUNTS,
    latency: float = BBN_LATENCY,
    bandwidth: float = BBN_BANDWIDTH,
    seed: int = 1993,
    simulator: str = "msg-fast",
) -> TssExperimentResult:
    """Reproduce Figure 3b (experiment 1) or Figure 4b (experiment 2).

    The constant workload makes each run deterministic, so one run per
    (technique, p) point suffices — matching the original single
    measurements.  ``simulator`` names a registered backend (the
    platform-aware MSG family; the default ``msg-fast`` is
    bit-identical to ``msg`` and faster, since all five techniques are
    closed-form).
    """
    from .runner import RunTask

    get_backend(simulator)  # fail fast on unknown backends
    if experiment not in TSS_EXPERIMENTS:
        raise ValueError(
            f"experiment must be one of {sorted(TSS_EXPERIMENTS)}, "
            f"got {experiment}"
        )
    spec = TSS_EXPERIMENTS[experiment]
    result = TssExperimentResult(
        experiment=experiment,
        n=spec["n"],
        task_time=spec["task_time"],
        pe_counts=tuple(pe_counts),
    )
    workload = ConstantWorkload(spec["task_time"])
    for label, name, kwargs in tss_technique_set(experiment):
        speedups: list[float] = []
        metrics: list[TzenNiMetrics] = []
        for p in pe_counts:
            task = RunTask(
                technique=name,
                params=SchedulingParams(n=spec["n"], p=p, h=0.0),
                workload=workload,
                simulator=simulator,
                platform=bbn_gp1000_platform(
                    p, latency=latency, bandwidth=bandwidth
                ),
                technique_kwargs=dict(kwargs),
                seed_entropy=(seed,),
            )
            m = tzen_ni_metrics(task.execute())
            speedups.append(m.speedup)
            metrics.append(m)
        result.speedups[label] = speedups
        result.metrics[label] = metrics
    return result


@dataclass(frozen=True)
class ReproductionVerdict:
    """Did a technique's curve reproduce the published one?"""

    technique: str
    max_abs_relative_discrepancy: float
    reproduced: bool


def tss_reproduction_verdicts(
    result: TssExperimentResult,
    tolerance_percent: float = 25.0,
) -> list[ReproductionVerdict]:
    """Compare simulated speedups against the digitized published curves.

    Mirrors Section IV-A's conclusion: CSS, TSS (and GSS with the larger
    minimum chunk) reproduce within tolerance, SS and GSS(1) do not.
    """
    from .published import tss_published_speedups

    published = tss_published_speedups(result.experiment)
    verdicts = []
    for technique, sim in result.speedups.items():
        if technique not in published:
            continue
        pub = published[technique]
        worst = max(
            abs((s - q) / q) * 100.0
            for s, q in zip(_at_published_pes(result, sim), pub)
        )
        verdicts.append(
            ReproductionVerdict(
                technique=technique,
                max_abs_relative_discrepancy=worst,
                reproduced=worst <= tolerance_percent,
            )
        )
    return verdicts


def remote_access_slowdown(ratio: float, p: int,
                           base_penalty: float = 0.5,
                           contention_per_pe: float = 0.05) -> float:
    """Compute-time inflation from remote memory references.

    Tzen & Ni measured speedup for remote reference ratios from 0 % to
    50 % on the GP-1000 (their motivation for fixing 5 % elsewhere).  The
    GP-1000's multistage network makes a remote reference several times
    a local one, and contention grows with the PE count; this synthetic
    stand-in inflates each task by
    ``1 + ratio * (base_penalty + contention_per_pe * p)``
    (see DESIGN.md §3 — the memory system itself is not modelled).
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"ratio must be in [0, 1], got {ratio}")
    return 1.0 + ratio * (base_penalty + contention_per_pe * p)


def run_remote_ratio_study(
    ratios: Sequence[float] = (0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5),
    p: int = 64,
    n: int = 100_000,
    task_time: float = 110e-6,
    technique: str = "tss",
    latency: float = BBN_LATENCY,
    seed: int = 1993,
    simulator: str = "msg-fast",
) -> dict[float, float]:
    """Speedup versus remote memory reference ratio (TSS pub., Sec. V).

    Speedup is measured against the *local* serial execution
    (``n * task_time``), so it degrades as remote references inflate the
    parallel compute time.  Returns ratio -> speedup.  Runs execute
    through :class:`~repro.experiments.runner.RunTask`, so an active
    result cache serves repeats.
    """
    from .runner import RunTask

    get_backend(simulator)  # fail fast on unknown backends
    platform = bbn_gp1000_platform(p, latency=latency)
    out: dict[float, float] = {}
    for ratio in ratios:
        factor = remote_access_slowdown(ratio, p)
        task = RunTask(
            technique=technique,
            params=SchedulingParams(n=n, p=p, h=0.0),
            workload=ConstantWorkload(task_time * factor),
            simulator=simulator,
            platform=platform,
            seed_entropy=(seed,),
        )
        out[ratio] = (n * task_time) / task.execute().makespan
    return out


def run_css_k_sweep(
    k_values: Sequence[int] = (1, 10, 100, 500, 1389, 5000, 20000),
    p: int = 72,
    n: int = 100_000,
    task_time: float = 110e-6,
    latency: float = BBN_LATENCY,
    seed: int = 1993,
    simulator: str = "msg-fast",
) -> dict[int, float]:
    """CSS(k) speedup versus chunk size (the TSS publication's tuning).

    Reproduces the claim quoted in Section IV-A: with
    ``(P, I, L(i)) = (72, 100000, 110us)`` the choice ``k = I/P = 1389``
    achieves speedup 69.2, "very close to the ideal speedup, 72".  The
    sweep shows the two failure directions: tiny ``k`` degenerates to SS
    (overhead bound), huge ``k`` to STAT-with-fewer-chunks (imbalance
    from the final partial chunks).  Returns k -> speedup.  Runs execute
    through :class:`~repro.experiments.runner.RunTask`, so an active
    result cache serves repeats.
    """
    from .runner import RunTask

    get_backend(simulator)  # fail fast on unknown backends
    workload = ConstantWorkload(task_time)
    platform = bbn_gp1000_platform(p, latency=latency)
    out: dict[int, float] = {}
    for k in k_values:
        task = RunTask(
            technique="css",
            params=SchedulingParams(n=n, p=p, h=0.0, chunk_size=k),
            workload=workload,
            simulator=simulator,
            platform=platform,
            technique_kwargs={"k": k},
            seed_entropy=(seed,),
        )
        out[k] = tzen_ni_metrics(task.execute()).speedup
    return out


#: the four workload shapes of the TSS publication's loop suite
TSS_WORKLOAD_SHAPES = ("constant", "random", "decreasing", "increasing")


def tss_workload(shape: str, n: int, task_time: float):
    """One of Tzen & Ni's four loop workload shapes.

    ``constant`` — every iteration takes ``task_time``; ``random`` —
    uniform in ``[0.5, 1.5] * task_time``; ``decreasing``/``increasing``
    — linear from/to ``2 * task_time`` and ``0.01 * task_time``
    (triangular loop nests).
    """
    from ..workloads.distributions import (
        ConstantWorkload,
        UniformWorkload,
        decreasing_workload,
        increasing_workload,
    )

    if shape == "constant":
        return ConstantWorkload(task_time)
    if shape == "random":
        return UniformWorkload(0.5 * task_time, 1.5 * task_time)
    if shape == "decreasing":
        return decreasing_workload(n, 2.0 * task_time, 0.01 * task_time)
    if shape == "increasing":
        return increasing_workload(n, 0.01 * task_time, 2.0 * task_time)
    raise ValueError(
        f"shape must be one of {TSS_WORKLOAD_SHAPES}, got {shape!r}"
    )


def run_tss_workload_study(
    experiment: int = 1,
    shapes: Sequence[str] = TSS_WORKLOAD_SHAPES,
    p: int = 64,
    latency: float = BBN_LATENCY,
    seed: int = 1993,
    simulator: str = "msg-fast",
) -> dict[str, dict[str, float]]:
    """Speedups of the five techniques across the four workload shapes.

    Extension of Figures 3/4: the TSS publication also measured its
    random/decreasing/increasing loops; this sweep regenerates the
    qualitative finding that TSS stays near-ideal across shapes while
    GSS suffers on decreasing workloads (its huge early chunks contain
    the longest iterations).  Returns shape -> technique -> speedup.
    Runs execute through :class:`~repro.experiments.runner.RunTask`, so
    an active result cache serves repeats.
    """
    from .runner import RunTask

    get_backend(simulator)  # fail fast on unknown backends
    spec = TSS_EXPERIMENTS[experiment]
    out: dict[str, dict[str, float]] = {}
    platform = bbn_gp1000_platform(p, latency=latency)
    for shape in shapes:
        workload = tss_workload(shape, spec["n"], spec["task_time"])
        row: dict[str, float] = {}
        for label, name, kwargs in tss_technique_set(experiment):
            task = RunTask(
                technique=name,
                params=SchedulingParams(n=spec["n"], p=p, h=0.0),
                workload=workload,
                simulator=simulator,
                platform=platform,
                technique_kwargs=dict(kwargs),
                seed_entropy=(seed,),
            )
            row[label] = tzen_ni_metrics(task.execute()).speedup
        out[shape] = row
    return out


def _at_published_pes(result: TssExperimentResult,
                      values: Sequence[float]) -> list[float]:
    """Restrict a simulated curve to the PE counts the digitization has."""
    from .published import TSS_PUBLISHED_PES

    out = []
    for p in TSS_PUBLISHED_PES:
        try:
            out.append(values[result.pe_counts.index(p)])
        except ValueError:
            raise ValueError(
                f"simulated sweep lacks published PE count {p}; "
                f"run with pe_counts including {TSS_PUBLISHED_PES}"
            ) from None
    return out
