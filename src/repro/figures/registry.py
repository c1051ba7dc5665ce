"""The artifact registry: every figure and table as a descriptor.

Each :class:`ArtifactSpec` names one artifact of the paper (Fig 3–9,
Tables II/III) or of the extension studies (robustness, scalability,
ablations), carries a ``quick`` and a ``full`` parameter set, and
names its producer: the one function that runs the artifact's
experiment (it builds the :class:`~repro.experiments.runner.RunTask`
objects and calls the runner) and returns its tidy data
(:class:`ArtifactData`).  The pipeline
(:mod:`repro.figures.pipeline`) iterates this registry; the drift layer
(:mod:`repro.figures.drift`) compares its quick output against the
committed references.

Quick parameter sets are sized so the whole registry regenerates in
seconds on the fast backends (``direct-batch`` for the BOLD
experiments, ``msg-fast`` for the platform-aware TSS ones — both
bit-identical to their slower siblings).  Full parameter sets are the
reproduction campaign behind EXPERIMENTS.md: ``repro-dls figures``
(without ``--quick``) regenerates all of them, and ``repro-dls run ID``
one.  They request ``msg-fast`` wherever they model the MSG stack; its
BOLD cells fall back to ``msg`` with a recorded event, because BOLD has
no precomputable schedule.  A full sweep that covers the published
reference's keys adds the paper's verification lines to the text: the
TSS reproduced/not verdicts and the BOLD discrepancies against the
reference.

Each spec also states what its artifact must show: :class:`Claim`
predicates taken from the paper and EXPERIMENTS.md (SS is the worst
technique at p=2, CSS and TSS reproduce Figure 3, ...).  A claim holds
in both modes unless it is marked ``full_only`` because it needs the
full sweep or run counts.  :func:`repro.figures.pipeline.produce_artifact`
evaluates them whenever a mode's parameter set is used unmodified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

__all__ = [
    "ARTIFACTS",
    "ArtifactData",
    "ArtifactSpec",
    "Claim",
    "artifact_ids",
    "get_artifact",
]


@dataclass
class ArtifactData:
    """One produced artifact: tidy series plus provenance raw material.

    ``series`` maps row labels (techniques) to value lists over
    ``keys`` (the sweep — PE counts, chunk sizes, ratios…); this is
    exactly what :func:`repro.experiments.report.csv_text` renders.
    ``text`` is the human rendering written next to the CSV.  ``extra``
    holds per-artifact payloads that do not fit the wide CSV (fig9's
    per-run distribution).
    """

    series: dict[str, list[float]]
    keys: tuple
    key_header: str = "pes"
    text: str = ""
    extra: dict = field(default_factory=dict)
    #: platform content identities in play, e.g. {"p=16": sha256hex}
    platforms: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Claim:
    """A named statement an artifact must show.

    ``holds(data, params)`` receives the produced :class:`ArtifactData`
    and the mode's parameter set.  A ``full_only`` claim needs the full
    sweep or run counts, so quick mode skips it.
    """

    name: str
    holds: Callable[[ArtifactData, Mapping], bool]
    full_only: bool = False


@dataclass(frozen=True)
class ArtifactSpec:
    """One registered artifact, how to produce it and what it must show."""

    id: str
    title: str
    paper_artifact: str                       # e.g. "Figure 5", "Table II"
    kind: str                                  # "table" | "lines" | "hist" | "bars"
    producer: Callable[..., ArtifactData]
    quick: Mapping = field(default_factory=dict)
    full: Mapping = field(default_factory=dict)
    claims: tuple[Claim, ...] = ()

    def params(self, mode: str) -> dict:
        if mode not in ("quick", "full"):
            raise ValueError(f"mode must be 'quick' or 'full', got {mode!r}")
        return dict(self.quick if mode == "quick" else self.full)

    def produce(self, mode: str, /, **overrides) -> ArtifactData:
        """The artifact from ``mode``'s parameters, ``overrides`` on top.

        ``mode`` is positional-only, so a producer parameter of the same
        name (the scalability study's strong/weak switch) is an override.
        """
        return self.producer(**{**self.params(mode), **overrides})

    def check_claims(self, mode: str, data: ArtifactData) -> dict[str, bool]:
        """The outcome of every claim ``mode`` evaluates, by name."""
        params = self.params(mode)
        return {
            claim.name: bool(claim.holds(data, params))
            for claim in self.claims
            if mode == "full" or not claim.full_only
        }


def _seq(values: Iterable[float]) -> list[float]:
    return [float(v) for v in values]


# --- tables -----------------------------------------------------------------

def _produce_table2() -> ArtifactData:
    from ..core.base import PARAM_SYMBOLS
    from ..experiments.tables import (
        TABLE2_TECHNIQUES,
        format_table2,
        table2_matches_publication,
    )
    from ..core.registry import get_technique

    series = {}
    for label in TABLE2_TECHNIQUES:
        cls = get_technique(label.lower())
        series[label] = [
            1.0 if symbol in cls.requires else 0.0
            for symbol in PARAM_SYMBOLS
        ]
    matches = table2_matches_publication()
    text = format_table2() + "\nmatches publication: " + ", ".join(
        f"{k}={'yes' if v else 'NO'}" for k, v in matches.items()
    )
    return ArtifactData(
        series=series,
        keys=tuple(PARAM_SYMBOLS),
        key_header="param",
        text=text,
        extra={"matches_publication": {k: bool(v) for k, v in matches.items()}},
    )


def _produce_table3() -> ArtifactData:
    from ..experiments.bold_experiments import BOLD_TASK_COUNTS
    from ..experiments.tables import format_table3

    figure_by_n = {1024: 5.0, 8192: 6.0, 65536: 7.0, 524288: 8.0}
    return ArtifactData(
        series={"figure": [figure_by_n[n] for n in BOLD_TASK_COUNTS]},
        keys=tuple(BOLD_TASK_COUNTS),
        key_header="n",
        text=format_table3(),
    )


# --- TSS experiments (Figures 3-4) ------------------------------------------

def _tss_platform_hashes(pe_counts) -> dict[str, str]:
    from ..experiments.tss_experiments import _bbn_platform
    from ..obs.provenance import platform_xml_hash

    return {
        f"p={p}": platform_xml_hash(_bbn_platform(p)) for p in pe_counts
    }


def _produce_tss(experiment: int, pe_counts: tuple, simulator: str,
                 seed: int) -> ArtifactData:
    """Figure 3b (experiment 1) or 4b (experiment 2): speedup curves.

    One run per (technique, p) point, as the original single
    measurements; the Tzen-Ni overhead and imbalance degrees ride along
    in ``extra``.  A sweep covering the digitized PE counts adds
    Section IV-A's reproduced/not verdicts.
    """
    from ..experiments.published import TSS_PUBLISHED_PES
    from ..experiments.report import series_table
    from ..experiments.tss_experiments import (
        TSS_EXPERIMENTS,
        tss_reproduction_verdicts,
        tss_run,
        tss_technique_set,
    )
    from ..metrics.speedup import tzen_ni_metrics
    from ..workloads.distributions import ConstantWorkload

    if experiment not in TSS_EXPERIMENTS:
        raise ValueError(
            f"experiment must be one of {sorted(TSS_EXPERIMENTS)}, "
            f"got {experiment}"
        )
    spec = TSS_EXPERIMENTS[experiment]
    pe_counts = tuple(pe_counts)
    workload = ConstantWorkload(spec["task_time"])
    series, overheads, imbalances = {}, {}, {}
    for label, name, kwargs in tss_technique_set(experiment):
        metrics = [
            tzen_ni_metrics(tss_run(name, kwargs, spec["n"], p, workload,
                                    simulator, seed))
            for p in pe_counts
        ]
        series[label] = _seq(m.speedup for m in metrics)
        overheads[label] = _seq(m.scheduling_overhead for m in metrics)
        imbalances[label] = _seq(m.load_imbalance for m in metrics)
    text = (
        f"TSS experiment {experiment}: n={spec['n']:,}, "
        f"task_time={spec['task_time']:g}s, simulator={simulator}\n"
        + series_table(series, pe_counts, key_header="speedup\\PEs")
    )
    extra = {"overheads": overheads, "imbalances": imbalances}
    if set(TSS_PUBLISHED_PES) <= set(pe_counts):
        verdicts = tss_reproduction_verdicts(experiment, series, pe_counts)
        extra["reproduced"] = {t: ok for t, _, ok in verdicts}
        text += "\n\nReproduction verdicts vs digitized published curves:"
        for technique, worst, ok in verdicts:
            status = "reproduced" if ok else "NOT reproduced"
            text += (
                f"\n  {technique:>8}: max |rel. discrepancy| = "
                f"{worst:6.1f}%  -> {status}"
            )
    return ArtifactData(
        series=series,
        keys=pe_counts,
        key_header="pes",
        text=text,
        extra=extra,
        platforms=_tss_platform_hashes(pe_counts),
    )


# --- BOLD experiments (Figures 5-9) -----------------------------------------

def _produce_bold(n: int, pe_counts: tuple, runs: int, simulator: str,
                  seed: int, scenario: str | None = None,
                  techniques: Sequence[str] | None = None) -> ArtifactData:
    """Figures 5-8 (a/b): average wasted time per technique and PE count.

    ``techniques`` defaults to the paper's eight.  The full PE sweep
    adds the discrepancy rows (c/d) against the regenerated reference.
    """
    from ..experiments.bold_experiments import (
        BOLD_PE_COUNTS,
        BOLD_TECHNIQUES,
        bold_cells,
    )
    from ..experiments.published import (
        bold_reference,
        bold_reference_available,
    )
    from ..experiments.report import series_table
    from ..metrics.discrepancy import discrepancy_table
    from ..scenarios import load_scenario

    pe_counts = tuple(pe_counts)
    cells = bold_cells(
        n, pe_counts, techniques or BOLD_TECHNIQUES, runs, simulator, seed,
        scenario=None if scenario is None else load_scenario(scenario),
    )
    series = {t: _seq(s.mean for s in cells[t]) for t in cells}
    text = (
        f"BOLD experiment: n={n:,}, {runs} run(s)/cell, "
        f"simulator={simulator}\n"
        + series_table(series, pe_counts, key_header="wasted\\PEs")
    )
    if pe_counts == BOLD_PE_COUNTS and bold_reference_available():
        rows = discrepancy_table(series, bold_reference(n), pe_counts)
        text += "\n\nDiscrepancy vs reference [s] (positive = slower):"
        for row in rows:
            cells_text = " ".join(f"{d:8.2f}" for d in row.discrepancies)
            text += f"\n  {row.technique:>5}: {cells_text}"
        text += "\nRelative discrepancy vs reference [%]:"
        for row in rows:
            cells_text = " ".join(
                f"{d:8.1f}" for d in row.relative_discrepancies
            )
            text += f"\n  {row.technique:>5}: {cells_text}"
    return ArtifactData(
        series=series,
        keys=pe_counts,
        key_header="pes",
        text=text,
    )


def _produce_fig9(runs: int, simulator: str, seed: int, n: int = 524288,
                  p: int = 2, scenario: str | None = None,
                  threshold: float = 400.0) -> ArtifactData:
    """Figure 9: the heavy tail of FAC's per-run wasted time.

    The paper observes 15 of 1,000 runs above 400 s (1.5 %) and an
    outlier-excluded mean of 25.82 s.
    """
    from ..experiments.bold_experiments import BOLD_MU, scheduling_params
    from ..experiments.report import ascii_histogram
    from ..experiments.runner import RunTask, run_replicated
    from ..metrics.summary import mean_excluding_above
    from ..metrics.wasted_time import OverheadModel
    from ..scenarios import load_scenario
    from ..workloads.distributions import ExponentialWorkload

    task = RunTask(
        technique="fac",
        params=scheduling_params(n, p),
        workload=ExponentialWorkload(BOLD_MU),
        simulator=simulator,
        overhead_model=OverheadModel.POST_HOC,
        scenario=None if scenario is None else load_scenario(scenario),
    )
    per_run = [
        r.average_wasted_time
        for r in run_replicated(task, runs, campaign_seed=seed)
    ]
    mean = sum(per_run) / len(per_run)
    try:
        mean_excluding, num_above = mean_excluding_above(per_run, threshold)
    except ValueError:
        # a perturbed machine can push every run past the outlier
        # threshold; report that instead of aborting the campaign
        mean_excluding, num_above = float("nan"), len(per_run)
    text = (
        f"FAC outlier study: n={n:,}, p={p}, {runs} run(s), "
        f"threshold={threshold:g}s\n"
        f"mean={mean:.2f}s  "
        f"mean_excluding={mean_excluding:.2f}s  "
        f"{num_above}/{runs} above threshold\n"
        + ascii_histogram(per_run, log_counts=True)
    )
    return ArtifactData(
        series={"FAC": [mean, mean_excluding, float(num_above),
                        num_above / runs]},
        keys=("mean", "mean_excluding", "num_above", "fraction_above"),
        key_header="stat",
        text=text,
        extra={"per_run": _seq(per_run), "threshold": threshold},
    )


# --- extension studies ------------------------------------------------------

#: techniques spanning static, non-adaptive dynamic, and adaptive DLS
_ROBUSTNESS_TECHNIQUES = ("stat", "ss", "gss", "tss", "fac", "awf-c", "bold")


def _produce_robustness(scenario: str, n: int, p: int, runs: int,
                        simulator: str, seed: int,
                        techniques: Sequence[str] = _ROBUSTNESS_TECHNIQUES,
                        ) -> ArtifactData:
    """Mean makespan per technique, clean vs under ``scenario``.

    Regenerates the spirit of the companion studies' robustness figures
    (IPDPS-W 2013 flexibility, ISPDC 2015 resilience).  Both halves of a
    cell take the same campaign seed; the scenario enters the cache
    key, so a cached clean baseline is reused while the perturbed runs
    are keyed separately.
    """
    import zlib
    from dataclasses import replace

    from ..experiments.bold_experiments import BOLD_MU, scheduling_params
    from ..experiments.runner import RunTask, run_replicated
    from ..scenarios import load_scenario
    from ..workloads.distributions import ExponentialWorkload

    perturbation = load_scenario(scenario)
    workload = ExponentialWorkload(BOLD_MU)
    series: dict[str, list[float]] = {}
    lost: dict[str, int] = {}
    for technique in techniques:
        clean_task = RunTask(
            technique=technique,
            params=scheduling_params(n, p),
            workload=workload,
            simulator=simulator,
        )
        cell_seed = zlib.crc32(f"{seed}:{n}:{p}:{technique}".encode())
        clean = run_replicated(clean_task, runs, campaign_seed=cell_seed)
        perturbed = run_replicated(
            replace(clean_task, scenario=perturbation), runs,
            campaign_seed=cell_seed,
        )
        clean_s = sum(r.makespan for r in clean) / runs
        perturbed_s = sum(r.makespan for r in perturbed) / runs
        degradation = (
            0.0 if clean_s == 0.0
            else 100.0 * (perturbed_s / clean_s - 1.0)
        )
        series[technique] = [clean_s, perturbed_s, degradation]
        lost[technique] = sum(
            r.extras.get("lost_chunks", 0) for r in perturbed
        )

    # an ASCII robustness figure: degradation bars per technique
    width = 30
    lines = [
        f"robustness under scenario {perturbation.name!r}: "
        f"n={n:,}, p={p}, {runs} run(s)/cell, "
        f"simulator={simulator}",
        f"  {'technique':>10} {'clean[s]':>10} {'perturbed[s]':>13} "
        f"{'degradation':>12}  {'lost':>5}",
    ]
    degradations = {t: values[2] for t, values in series.items()}
    worst = max(map(abs, degradations.values()), default=0.0)
    for technique, (clean_s, perturbed_s, deg) in series.items():
        bar_len = (
            0 if worst == 0.0
            else max(0, round(width * abs(deg) / worst))
        )
        bar = ("+" if deg >= 0 else "-") * bar_len
        lines.append(
            f"  {technique:>10} {clean_s:>10.2f} "
            f"{perturbed_s:>13.2f} {deg:>+11.1f}%  "
            f"{lost[technique]:>5d} {bar}"
        )
    most = max(degradations, key=degradations.get, default=None)
    least = min(degradations, key=degradations.get, default=None)
    if most is not None and least is not None and most != least:
        lines.append(
            f"  most robust: {least} "
            f"({degradations[least]:+.1f}%), least robust: "
            f"{most} ({degradations[most]:+.1f}%)"
        )
    return ArtifactData(
        series=series,
        keys=("clean_s", "perturbed_s", "degradation_pct"),
        key_header="metric",
        text="\n".join(lines),
    )


#: from static chunking to the batched and adaptive techniques
_SCALING_TECHNIQUES = ("stat", "ss", "gss", "tss", "fac2", "bold")


def _produce_scalability(mode: str, pe_counts: tuple, n_total: int,
                         runs: int, simulator: str, seed: int,
                         techniques: Sequence[str] = _SCALING_TECHNIQUES,
                         tasks_per_pe: int = 256) -> ArtifactData:
    """Strong- or weak-scaling efficiency (Balasubramaniam et al. 2012).

    Strong scaling keeps ``n_total`` tasks; weak scaling keeps
    ``tasks_per_pe`` per PE.  Efficiency is speedup / p (1.0 = perfect).
    The SERIALIZED_MASTER overhead model makes scheduling operations
    contend at the master — the contention that actually limits SS's
    scalability; post-hoc accounting would make SS look free.
    """
    import statistics

    from ..core.params import SchedulingParams
    from ..experiments.report import series_table
    from ..experiments.runner import RunTask
    from ..metrics.wasted_time import OverheadModel
    from ..workloads.distributions import ExponentialWorkload

    if mode not in ("strong", "weak"):
        raise ValueError(f"mode must be 'strong' or 'weak', got {mode!r}")
    pe_counts = tuple(pe_counts)
    workload = ExponentialWorkload(1.0)
    tasks_at = {
        p: n_total if mode == "strong" else tasks_per_pe * p
        for p in pe_counts
    }
    efficiency: dict[str, list[float]] = {}
    wasted: dict[str, list[float]] = {}
    for technique in techniques:
        effs: list[float] = []
        wts: list[float] = []
        for p in pe_counts:
            params = SchedulingParams(
                n=tasks_at[p], p=p, h=0.05, mu=workload.mean,
                sigma=workload.std,
            )
            samples = [
                RunTask(
                    technique=technique,
                    params=params,
                    workload=workload,
                    simulator=simulator,
                    overhead_model=OverheadModel.SERIALIZED_MASTER,
                    seed_entropy=(seed * 1000 + p * 10 + i,),
                ).execute()
                for i in range(runs)
            ]
            effs.append(statistics.mean(r.efficiency for r in samples))
            wts.append(
                statistics.mean(r.average_wasted_time for r in samples)
            )
        efficiency[technique] = effs
        wasted[technique] = wts
    title = (
        f"{mode} scaling, "
        f"n per point: {[tasks_at[p] for p in pe_counts]}"
    )
    table = series_table(
        {t.upper(): v for t, v in efficiency.items()},
        pe_counts,
        key_header="eff\\PEs",
    )
    return ArtifactData(
        series={k: _seq(v) for k, v in efficiency.items()},
        keys=pe_counts,
        key_header="pes",
        text=f"{title}\n{table}",
        extra={"wasted": {k: _seq(v) for k, v in wasted.items()}},
    )


def _produce_css_sweep(k_values: tuple, p: int, simulator: str,
                       seed: int) -> ArtifactData:
    """CSS(k) speedup versus chunk size (the TSS publication's tuning).

    With ``(P, I, L(i)) = (72, 100000, 110us)`` the choice
    ``k = I/P = 1389`` achieves speedup 69.2, "very close to the ideal
    speedup, 72" (Section IV-A).  Tiny ``k`` degenerates to SS (overhead
    bound), huge ``k`` to STAT with fewer chunks (imbalance from the
    final partial chunks).
    """
    from ..experiments.report import series_table
    from ..experiments.tss_experiments import TSS_EXPERIMENTS, tss_run
    from ..metrics.speedup import tzen_ni_metrics
    from ..workloads.distributions import ConstantWorkload

    spec = TSS_EXPERIMENTS[1]
    workload = ConstantWorkload(spec["task_time"])
    keys = tuple(k_values)
    series = {"CSS": _seq(
        tzen_ni_metrics(tss_run("css", {"k": k}, spec["n"], p, workload,
                                simulator, seed, chunk_size=k)).speedup
        for k in keys
    )}
    text = (
        f"CSS(k) chunk-size ablation: p={p}, simulator={simulator}\n"
        + series_table(series, keys, key_header="speedup\\k")
    )
    return ArtifactData(
        series=series, keys=keys, key_header="k", text=text,
        platforms=_tss_platform_hashes((p,)),
    )


def _produce_remote_ratio(ratios: tuple, p: int, simulator: str,
                          seed: int, n: int = 100_000) -> ArtifactData:
    """TSS speedup versus remote memory reference ratio (TSS pub., Sec. V).

    Speedup is measured against the *local* serial execution, so it
    degrades as remote references inflate the parallel compute time
    (:func:`~repro.experiments.tss_experiments.remote_access_slowdown`).
    """
    from ..experiments.report import series_table
    from ..experiments.tss_experiments import (
        TSS_EXPERIMENTS,
        remote_access_slowdown,
        tss_run,
    )
    from ..workloads.distributions import ConstantWorkload

    task_time = TSS_EXPERIMENTS[1]["task_time"]
    keys = tuple(ratios)
    series = {"TSS": _seq(
        (n * task_time) / tss_run(
            "tss", {}, n, p,
            ConstantWorkload(task_time * remote_access_slowdown(ratio, p)),
            simulator, seed,
        ).makespan
        for ratio in keys
    )}
    text = (
        f"remote-reference ratio ablation: p={p}, simulator={simulator}\n"
        + series_table(series, keys, key_header="speedup\\ratio")
    )
    return ArtifactData(
        series=series, keys=keys, key_header="ratio", text=text,
        platforms=_tss_platform_hashes((p,)),
    )


def _produce_tss_shapes(experiment: int, p: int, simulator: str, seed: int,
                        shapes: Sequence[str] | None = None) -> ArtifactData:
    """The five TSS curves' speedups across the loop workload shapes.

    Extends Figures 3/4 to the TSS publication's random, decreasing and
    increasing loops: TSS stays near-ideal across shapes while GSS
    suffers on decreasing workloads (its huge early chunks contain the
    longest iterations).  ``shapes`` defaults to all four.
    """
    from ..experiments.report import series_table
    from ..experiments.tss_experiments import (
        TSS_EXPERIMENTS,
        TSS_WORKLOAD_SHAPES,
        tss_run,
        tss_technique_set,
        tss_workload,
    )
    from ..metrics.speedup import tzen_ni_metrics

    spec = TSS_EXPERIMENTS[experiment]
    study: dict[str, dict[str, float]] = {}
    for shape in shapes or TSS_WORKLOAD_SHAPES:
        workload = tss_workload(shape, spec["n"], spec["task_time"])
        study[shape] = {
            label: tzen_ni_metrics(tss_run(name, kwargs, spec["n"], p,
                                           workload, simulator,
                                           seed)).speedup
            for label, name, kwargs in tss_technique_set(experiment)
        }
    keys = tuple(s for s in TSS_WORKLOAD_SHAPES if s in study)
    series = {
        t: [float(study[s][t]) for s in keys] for t in study[keys[0]]
    }
    text = (
        f"workload-shape ablation: experiment {experiment}, p={p}, "
        f"simulator={simulator}\n"
        + series_table(series, keys, key_header="speedup\\shape")
    )
    return ArtifactData(
        series=series, keys=keys, key_header="shape", text=text,
        platforms=_tss_platform_hashes((p,)),
    )


# --- claims -----------------------------------------------------------------
#
# Each claim states a result of the paper, of EXPERIMENTS.md or of the
# companion study an extension artifact reproduces.  A claim that needs
# the full sweep or run counts is full-only.

def _at(data: ArtifactData, key) -> dict[str, float]:
    """Every series' value at sweep key ``key``."""
    i = list(data.keys).index(key)
    return {label: values[i] for label, values in data.series.items()}


def _bold_overhead(params: Mapping, p: int) -> float:
    """SS's wasted time h*n/p: one overhead h per task, n/p tasks per PE."""
    from ..experiments.bold_experiments import BOLD_H

    return BOLD_H * params["n"] / p


def _ss_tracks_overhead(data: ArtifactData, params: Mapping) -> bool:
    return all(
        ss >= 0.8 * _bold_overhead(params, p)
        for p, ss in zip(data.keys, data.series["SS"])
        if _bold_overhead(params, p) > 20
    )


_BOLD_CLAIMS = (
    Claim("every value is positive",
          lambda d, _: all(v > 0 for vs in d.series.values() for v in vs)),
    Claim("SS is the worst technique at p=2",
          lambda d, _: _at(d, 2)["SS"] == max(_at(d, 2).values())),
    Claim("FAC2 is below STAT at p=2",
          lambda d, _: _at(d, 2)["FAC2"] < _at(d, 2)["STAT"]),
    Claim("SS >= 0.8*h*n/p wherever h*n/p > 20 s", _ss_tracks_overhead),
)


def _converges_at_p_equals_n(data: ArtifactData, params: Mapping) -> bool:
    at_pn = _at(data, params["n"]).values()
    return max(at_pn) - min(at_pn) < 0.2 * max(at_pn)


def _ss_dominates_at_p2(data: ArtifactData, params: Mapping) -> bool:
    at_p2 = _at(data, 2)
    ss = at_p2.pop("SS")
    return ss > 1800 and ss > 10 * max(at_p2.values())


def _ss_equals_overhead_at_p2(data: ArtifactData, params: Mapping) -> bool:
    expected = _bold_overhead(params, 2)
    return abs(_at(data, 2)["SS"] - expected) < 0.01 * expected


def _fac_heavy_tail(data: ArtifactData, params: Mapping) -> bool:
    return 0 < _at(data, "num_above")["FAC"] < 0.1 * params["runs"]


def _fac_mean_collapses(data: ArtifactData, params: Mapping) -> bool:
    mean = _at(data, "mean")["FAC"]
    excluding = _at(data, "mean_excluding")["FAC"]
    return excluding < mean and 5.0 < excluding < 120.0


def _tss_verdicts(big_gss: str) -> Claim:
    """Section IV-A's verdicts on the full sweep of Figure 3 or 4."""
    expected = {"SS": False, "CSS": True, "GSS(1)": False, big_gss: True,
                "TSS": True}
    return Claim(
        f"CSS, TSS and {big_gss} reproduce; SS and GSS(1) do not",
        lambda d, _: d.extra["reproduced"] == expected,
        full_only=True,
    )


def _table2_matches_publication(data: ArtifactData, params: Mapping) -> bool:
    from ..experiments.tables import TABLE2_PUBLISHED

    produced = {
        label: {s for s, x in zip(data.keys, row) if x == 1.0}
        for label, row in data.series.items()
    }
    return produced == {k: set(v) for k, v in TABLE2_PUBLISHED.items()}


# --- the registry -----------------------------------------------------------

_SPECS = [
    ArtifactSpec(
        id="table2",
        title="Required parameters per DLS technique",
        paper_artifact="Table II",
        kind="table",
        producer=_produce_table2,
        claims=(
            Claim("all eight techniques match the publication",
                  _table2_matches_publication),
        ),
    ),
    ArtifactSpec(
        id="table3",
        title="Overview of the BOLD reproducibility experiments",
        paper_artifact="Table III",
        kind="table",
        producer=_produce_table3,
    ),
    ArtifactSpec(
        id="fig3",
        title="TSS experiment 1 speedups (n=100,000, 110us tasks)",
        paper_artifact="Figure 3",
        kind="lines",
        producer=_produce_tss,
        quick={"experiment": 1, "pe_counts": (2, 8, 16),
               "simulator": "msg-fast", "seed": 1993},
        full={"experiment": 1,
              "pe_counts": (2, 8, 16, 24, 32, 40, 48, 56, 64, 72, 80),
              "simulator": "msg-fast", "seed": 1993},
        claims=(
            _tss_verdicts("GSS(80)"),
            Claim("CSS and TSS exceed a speedup of 60 at 72 PEs",
                  lambda d, _: min(_at(d, 72)["CSS"], _at(d, 72)["TSS"]) > 60,
                  full_only=True),
        ),
    ),
    ArtifactSpec(
        id="fig4",
        title="TSS experiment 2 speedups (n=10,000, 2ms tasks)",
        paper_artifact="Figure 4",
        kind="lines",
        producer=_produce_tss,
        quick={"experiment": 2, "pe_counts": (2, 8, 16),
               "simulator": "msg-fast", "seed": 1993},
        full={"experiment": 2,
              "pe_counts": (2, 8, 16, 24, 32, 40, 48, 56, 64, 72, 80),
              "simulator": "msg-fast", "seed": 1993},
        claims=(
            _tss_verdicts("GSS(5)"),
            Claim("at 72 PEs CSS exceeds 60, GSS(5) 55 and SS 50",
                  lambda d, _: _at(d, 72)["CSS"] > 60
                  and _at(d, 72)["GSS(5)"] > 55 and _at(d, 72)["SS"] > 50,
                  full_only=True),
        ),
    ),
    ArtifactSpec(
        id="fig5",
        title="BOLD wasted time, 1,024 tasks",
        paper_artifact="Figure 5",
        kind="lines",
        producer=_produce_bold,
        quick={"n": 1024, "pe_counts": (2, 8, 64), "runs": 5,
               "simulator": "direct-batch", "seed": 2017},
        full={"n": 1024, "pe_counts": (2, 8, 64, 256, 1024), "runs": 100,
              "simulator": "msg-fast", "seed": 2017},
        claims=_BOLD_CLAIMS + (
            Claim("at p=n the spread across techniques is under 0.2x "
                  "the largest value", _converges_at_p_equals_n,
                  full_only=True),
        ),
    ),
    ArtifactSpec(
        id="fig6",
        title="BOLD wasted time, 8,192 tasks",
        paper_artifact="Figure 6",
        kind="lines",
        producer=_produce_bold,
        quick={"n": 8192, "pe_counts": (2, 8, 64), "runs": 3,
               "simulator": "direct-batch", "seed": 2017},
        full={"n": 8192, "pe_counts": (2, 8, 64, 256, 1024), "runs": 30,
              "simulator": "msg-fast", "seed": 2017},
        claims=_BOLD_CLAIMS + (
            Claim("SS at p=2 is above 1,800 s and more than 10x every "
                  "other technique", _ss_dominates_at_p2),
        ),
    ),
    ArtifactSpec(
        id="fig7",
        title="BOLD wasted time, 65,536 tasks",
        paper_artifact="Figure 7",
        kind="lines",
        producer=_produce_bold,
        quick={"n": 65536, "pe_counts": (2, 8, 64), "runs": 2,
               "simulator": "direct-batch", "seed": 2017},
        full={"n": 65536, "pe_counts": (2, 8, 64, 256, 1024), "runs": 8,
              "simulator": "msg-fast", "seed": 2017},
        claims=_BOLD_CLAIMS + (
            Claim("FAC2 stays below 40 s",
                  lambda d, _: max(d.series["FAC2"]) < 40),
            Claim("STAT exceeds 40 s",
                  lambda d, _: max(d.series["STAT"]) > 40),
        ),
    ),
    ArtifactSpec(
        id="fig8",
        title="BOLD wasted time, 524,288 tasks",
        paper_artifact="Figure 8",
        kind="lines",
        producer=_produce_bold,
        quick={"n": 524288, "pe_counts": (2, 8), "runs": 1,
               "simulator": "direct-batch", "seed": 2017},
        full={"n": 524288, "pe_counts": (2, 8, 64, 256, 1024), "runs": 2,
              "simulator": "msg-fast", "seed": 2017},
        claims=_BOLD_CLAIMS + (
            Claim("SS at p=2 is within 1% of h*n/p",
                  _ss_equals_overhead_at_p2),
            Claim("FAC2 stays below 200 s",
                  lambda d, _: max(d.series["FAC2"]) < 200),
        ),
    ),
    ArtifactSpec(
        id="fig9",
        title="FAC per-run wasted-time distribution (outlier study)",
        paper_artifact="Figure 9",
        kind="hist",
        producer=_produce_fig9,
        quick={"runs": 60, "simulator": "direct-batch", "seed": 1997},
        full={"runs": 1000, "simulator": "direct", "seed": 1997},
        claims=(
            Claim("more than 0 but fewer than 10% of runs are above 400 s",
                  _fac_heavy_tail),
            Claim("the outlier-excluded mean is below the mean and "
                  "within 5-120 s", _fac_mean_collapses),
        ),
    ),
    ArtifactSpec(
        id="robustness",
        title="Makespan degradation under a perturbation scenario",
        paper_artifact="extension (IPDPS-W'13 / ISPDC'15 spirit)",
        kind="bars",
        producer=_produce_robustness,
        quick={"scenario": "perturbed-deterministic", "n": 1024, "p": 8,
               "runs": 2, "simulator": "direct", "seed": 2013},
        full={"scenario": "perturbed-deterministic", "n": 8192, "p": 16,
              "runs": 10, "simulator": "direct", "seed": 2013},
    ),
    ArtifactSpec(
        id="scalability",
        title="Strong-scaling efficiency across PE counts",
        paper_artifact="extension (IPDPS-W'12 scalability study)",
        kind="lines",
        producer=_produce_scalability,
        quick={"mode": "strong", "pe_counts": (2, 8, 32),
               "n_total": 4096, "runs": 2, "simulator": "direct",
               "seed": 2012},
        full={"mode": "strong", "pe_counts": (2, 4, 8, 16, 32, 64, 128),
              "n_total": 16384, "runs": 5, "simulator": "direct",
              "seed": 2012},
        claims=(
            Claim("every technique's efficiency falls from the first PE "
                  "count to the last",
                  lambda d, _: all(v[0] > v[-1] for v in d.series.values())),
            Claim("the most efficient technique at the last PE count is "
                  "fac2, bold, tss or gss",
                  lambda d, _: max(d.series, key=lambda t: d.series[t][-1])
                  in ("fac2", "bold", "tss", "gss")),
            Claim("SS's efficiency is below 0.2 at the last PE count",
                  lambda d, _: d.series["ss"][-1] < 0.2, full_only=True),
        ),
    ),
    ArtifactSpec(
        id="css-sweep",
        title="CSS(k) speedup versus chunk size",
        paper_artifact="ablation (Tzen & Ni chunk-size tuning)",
        kind="lines",
        producer=_produce_css_sweep,
        quick={"k_values": (1, 100, 1389, 20000), "p": 72,
               "simulator": "msg-fast", "seed": 1993},
        full={"k_values": (1, 10, 100, 500, 1389, 5000, 20000), "p": 72,
              "simulator": "msg-fast", "seed": 1993},
        claims=(
            Claim("the speedup at k=1389 is above 65",
                  lambda d, _: _at(d, 1389)["CSS"] > 65),
            Claim("the speedup at k=1 is below that at k=1389",
                  lambda d, _: _at(d, 1)["CSS"] < _at(d, 1389)["CSS"]),
            Claim("the speedup at k=20000 is below 10",
                  lambda d, _: _at(d, 20000)["CSS"] < 10),
        ),
    ),
    ArtifactSpec(
        id="remote-ratio",
        title="TSS speedup versus remote memory reference ratio",
        paper_artifact="ablation (TSS publication, Sec. V)",
        kind="lines",
        producer=_produce_remote_ratio,
        quick={"ratios": (0.0, 0.1, 0.3, 0.5), "p": 64,
               "simulator": "msg-fast", "seed": 1993},
        full={"ratios": (0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5), "p": 64,
              "simulator": "msg-fast", "seed": 1993},
    ),
    ArtifactSpec(
        id="tss-shapes",
        title="Technique speedups across the four loop workload shapes",
        paper_artifact="ablation (Tzen & Ni loop suite)",
        kind="bars",
        producer=_produce_tss_shapes,
        quick={"experiment": 1, "p": 16, "simulator": "msg-fast",
               "seed": 1993},
        full={"experiment": 1, "p": 64, "simulator": "msg-fast",
              "seed": 1993},
        claims=(
            Claim("TSS is above 0.85*p on every shape",
                  lambda d, params: min(d.series["TSS"]) > 0.85 * params["p"]),
            Claim("TSS is at least CSS on the decreasing loop",
                  lambda d, _: _at(d, "decreasing")["TSS"]
                  >= _at(d, "decreasing")["CSS"]),
        ),
    ),
]

#: registry id -> spec, in emission order
ARTIFACTS: dict[str, ArtifactSpec] = {spec.id: spec for spec in _SPECS}


def artifact_ids() -> tuple[str, ...]:
    """Registered artifact ids, in emission order."""
    return tuple(ARTIFACTS)


def get_artifact(artifact_id: str) -> ArtifactSpec:
    """Look up a registered artifact, with an actionable error."""
    try:
        return ARTIFACTS[artifact_id]
    except KeyError:
        raise ValueError(
            f"unknown artifact {artifact_id!r}; registered: "
            f"{', '.join(ARTIFACTS)}"
        ) from None
