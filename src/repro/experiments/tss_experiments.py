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

from functools import lru_cache
from typing import Sequence

from ..core.params import SchedulingParams
from ..results import RunResult
from ..simgrid.platform import Platform, star_platform
from ..workloads.distributions import Workload
from .runner import RunTask

#: PE counts matching the sweep of the original figures (x-axis 0..80)
TSS_PE_COUNTS = (2, 8, 16, 24, 32, 40, 48, 56, 64, 72, 80)

#: experiment definitions: (n, task seconds, big GSS minimum chunk)
TSS_EXPERIMENTS = {
    1: {"n": 100_000, "task_time": 110e-6, "gss_k": 80},
    2: {"n": 10_000, "task_time": 2e-3, "gss_k": 5},
}

#: per-message latency of the BBN-GP-1000-like platform [s]
BBN_LATENCY = 2e-6
#: link bandwidth [bytes/s] — control messages make this marginal
BBN_BANDWIDTH = 1.25e8


def bbn_gp1000_platform(p: int) -> Platform:
    """A star stand-in for the GP-1000's multistage network.

    Only request/assign/finalize messages flow (Section III-A), so the
    OMEGA-variant topology reduces to a per-worker path with one
    network-traversal latency.
    """
    return star_platform(p, bandwidth=BBN_BANDWIDTH, latency=BBN_LATENCY)


@lru_cache(maxsize=32)
def _bbn_platform(p: int) -> Platform:
    """The one :func:`bbn_gp1000_platform` of a PE count.

    Every TSS-family run at ``p`` and its manifest's platform hash share
    it, so the platform is built and serialised once.  Nothing may
    change it.
    """
    return bbn_gp1000_platform(p)


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


def tss_run(
    technique: str,
    kwargs: dict,
    n: int,
    p: int,
    workload: Workload,
    simulator: str,
    seed: int,
    chunk_size: int | None = None,
) -> RunResult:
    """One seeded run of a technique on the BBN-GP-1000-like platform.

    The TSS experiments and their ablations measure one run per point,
    as the original single measurements did (a constant workload makes
    the run deterministic).  ``kwargs`` go to the technique's
    constructor; ``chunk_size`` sets the scheduling parameters' chunk
    size (CSS(k)).  The run executes through
    :class:`~repro.experiments.runner.RunTask`, so an active result
    cache serves repeats.
    """
    return RunTask(
        technique=technique,
        params=SchedulingParams(n=n, p=p, h=0.0, chunk_size=chunk_size),
        workload=workload,
        simulator=simulator,
        platform=_bbn_platform(p),
        technique_kwargs=dict(kwargs),
        seed_entropy=(seed,),
    ).execute()


def tss_reproduction_verdicts(
    experiment: int,
    series: dict[str, list[float]],
    pe_counts: Sequence[int],
) -> list[tuple[str, float, bool]]:
    """Compare simulated speedups against the digitized published curves.

    ``series`` maps a curve label to its speedups over ``pe_counts``,
    which must include every digitized PE count.  Returns one
    ``(technique, worst |relative discrepancy| in %, reproduced)``
    triple per published curve: a curve reproduces within 25 %.
    Mirrors Section IV-A's conclusion: CSS, TSS (and GSS with the larger
    minimum chunk) reproduce, SS and GSS(1) do not.
    """
    from .published import TSS_PUBLISHED_PES, tss_published_speedups

    published = tss_published_speedups(experiment)
    verdicts = []
    for technique, sim in series.items():
        if technique not in published:
            continue
        at = dict(zip(pe_counts, sim))
        worst = max(
            abs((at[p] - q) / q) * 100.0
            for p, q in zip(TSS_PUBLISHED_PES, published[technique])
        )
        verdicts.append((technique, worst, worst <= 25.0))
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
