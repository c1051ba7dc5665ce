"""The artifact registry: every figure and table as a descriptor.

Each :class:`ArtifactSpec` names one artifact of the paper (Fig 3–9,
Tables II/III) or of the extension studies (robustness, scalability,
ablations), carries a ``quick`` and a ``full`` parameter set, and knows
how to produce the artifact's tidy data (:class:`ArtifactData`) by
calling the underlying experiment.  The pipeline
(:mod:`repro.figures.pipeline`) iterates this registry; the drift layer
(:mod:`repro.figures.drift`) compares its quick output against the
committed references.

Quick parameter sets are sized so the whole registry regenerates in
seconds on the fast backends (``direct-batch`` for the BOLD
experiments, ``msg-fast`` for the platform-aware TSS ones — both
bit-identical to their slower siblings).  Full parameter sets are the
reproduction campaign behind EXPERIMENTS.md: ``repro-dls figures``
(without ``--quick``) regenerates all of them, and ``repro-dls run ID``
one.  A full sweep that covers the published reference's keys adds the
paper's verification lines to the text: the TSS reproduced/not
verdicts and the BOLD discrepancies against the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

__all__ = [
    "ARTIFACTS",
    "ArtifactData",
    "ArtifactSpec",
    "artifact_ids",
    "get_artifact",
]


@dataclass
class ArtifactData:
    """One produced artifact: tidy series plus provenance raw material.

    ``series`` maps row labels (techniques) to value lists over
    ``keys`` (the sweep — PE counts, chunk sizes, ratios…); this is
    exactly what :func:`repro.experiments.report.write_csv` emits.
    ``text`` is the human rendering written next to the CSV.  ``extra``
    holds per-artifact payloads that do not fit the wide CSV (fig9's
    per-run distribution).  ``fallbacks`` are the events the producer
    collected itself (:func:`repro.figures.pipeline.produce_artifact`
    adds those left in the global log).
    """

    series: dict[str, list[float]]
    keys: tuple
    key_header: str = "pes"
    text: str = ""
    extra: dict = field(default_factory=dict)
    fallbacks: list = field(default_factory=list)
    #: platform content identities in play, e.g. {"p=16": sha256hex}
    platforms: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class ArtifactSpec:
    """One registered artifact and how to produce it in either mode."""

    id: str
    title: str
    paper_artifact: str                       # e.g. "Figure 5", "Table II"
    kind: str                                  # "table" | "lines" | "hist" | "bars"
    producer: Callable[..., ArtifactData]
    quick: Mapping = field(default_factory=dict)
    full: Mapping = field(default_factory=dict)

    def params(self, mode: str) -> dict:
        if mode not in ("quick", "full"):
            raise ValueError(f"mode must be 'quick' or 'full', got {mode!r}")
        return dict(self.quick if mode == "quick" else self.full)

    def produce(self, mode: str, **overrides) -> ArtifactData:
        """The artifact from ``mode``'s parameters, ``overrides`` on top."""
        return self.producer(**{**self.params(mode), **overrides})


def _seq(values: Sequence[float]) -> list[float]:
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
    from ..experiments.tss_experiments import bbn_gp1000_platform
    from ..obs.provenance import platform_xml_hash

    return {
        f"p={p}": platform_xml_hash(bbn_gp1000_platform(p))
        for p in pe_counts
    }


def _produce_tss(experiment: int, pe_counts: tuple, simulator: str,
                 seed: int) -> ArtifactData:
    from ..experiments.published import TSS_PUBLISHED_PES
    from ..experiments.report import series_table
    from ..experiments.tss_experiments import (
        run_tss_experiment,
        tss_reproduction_verdicts,
    )

    result = run_tss_experiment(
        experiment, pe_counts=pe_counts, simulator=simulator, seed=seed
    )
    series = {k: _seq(v) for k, v in result.speedups.items()}
    text = (
        f"TSS experiment {experiment}: n={result.n:,}, "
        f"task_time={result.task_time:g}s, simulator={simulator}\n"
        + series_table(series, result.pe_counts, key_header="speedup\\PEs")
    )
    if set(TSS_PUBLISHED_PES) <= set(result.pe_counts):
        text += "\n\nReproduction verdicts vs digitized published curves:"
        for v in tss_reproduction_verdicts(result):
            status = "reproduced" if v.reproduced else "NOT reproduced"
            text += (
                f"\n  {v.technique:>8}: max |rel. discrepancy| = "
                f"{v.max_abs_relative_discrepancy:6.1f}%  -> {status}"
            )
    return ArtifactData(
        series=series,
        keys=result.pe_counts,
        key_header="pes",
        text=text,
        extra={
            "overheads": {k: _seq(v) for k, v in result.overheads.items()},
            "imbalances": {k: _seq(v) for k, v in result.imbalances.items()},
        },
        platforms=_tss_platform_hashes(result.pe_counts),
    )


# --- BOLD experiments (Figures 5-9) -----------------------------------------

def _produce_bold(n: int, pe_counts: tuple, runs: int, simulator: str,
                  seed: int, scenario: str | None = None) -> ArtifactData:
    from ..experiments.bold_experiments import (
        BOLD_PE_COUNTS,
        compare_to_reference,
        run_bold_experiment,
    )
    from ..experiments.published import bold_reference_available
    from ..experiments.report import series_table
    from ..scenarios import load_scenario

    result = run_bold_experiment(
        n, pe_counts=pe_counts, runs=runs, simulator=simulator, seed=seed,
        scenario=None if scenario is None else load_scenario(scenario),
    )
    series = {k: _seq(v) for k, v in result.values.items()}
    text = (
        f"BOLD experiment: n={n:,}, {runs} run(s)/cell, "
        f"simulator={simulator}\n"
        + series_table(series, result.pe_counts, key_header="wasted\\PEs")
    )
    if result.pe_counts == BOLD_PE_COUNTS and bold_reference_available():
        rows = compare_to_reference(result)
        text += "\n\nDiscrepancy vs reference [s] (positive = slower):"
        for row in rows:
            cells = " ".join(f"{d:8.2f}" for d in row.discrepancies)
            text += f"\n  {row.technique:>5}: {cells}"
        text += "\nRelative discrepancy vs reference [%]:"
        for row in rows:
            cells = " ".join(f"{d:8.1f}" for d in row.relative_discrepancies)
            text += f"\n  {row.technique:>5}: {cells}"
    return ArtifactData(
        series=series,
        keys=result.pe_counts,
        key_header="pes",
        text=text,
        fallbacks=list(result.fallbacks),
    )


def _produce_fig9(runs: int, simulator: str, seed: int, n: int = 524288,
                  p: int = 2, scenario: str | None = None) -> ArtifactData:
    from ..experiments.bold_experiments import fac_outlier_study
    from ..experiments.report import ascii_histogram
    from ..scenarios import load_scenario

    result = fac_outlier_study(
        n=n, p=p, runs=runs, simulator=simulator, seed=seed,
        scenario=None if scenario is None else load_scenario(scenario),
    )
    series = {
        "FAC": [
            result.mean,
            result.mean_excluding,
            float(result.num_above),
            result.fraction_above,
        ]
    }
    text = (
        f"FAC outlier study: n={n:,}, p={p}, {runs} run(s), "
        f"threshold={result.threshold:g}s\n"
        f"mean={result.mean:.2f}s  "
        f"mean_excluding={result.mean_excluding:.2f}s  "
        f"{result.num_above}/{runs} above threshold\n"
        + ascii_histogram(result.per_run, log_counts=True)
    )
    return ArtifactData(
        series=series,
        keys=("mean", "mean_excluding", "num_above", "fraction_above"),
        key_header="stat",
        text=text,
        extra={"per_run": _seq(result.per_run),
               "threshold": result.threshold},
        fallbacks=list(result.fallbacks),
    )


# --- extension studies ------------------------------------------------------

def _produce_robustness(scenario: str, n: int, p: int, runs: int,
                        simulator: str, seed: int) -> ArtifactData:
    from ..experiments.robustness import (
        robustness_report,
        run_robustness_study,
    )
    from ..scenarios import load_scenario

    result = run_robustness_study(
        load_scenario(scenario), n=n, p=p, runs=runs, simulator=simulator,
        seed=seed,
    )
    series = {
        row.technique: [
            row.clean_makespan,
            row.perturbed_makespan,
            row.degradation_percent,
        ]
        for row in result.rows
    }
    return ArtifactData(
        series=series,
        keys=("clean_s", "perturbed_s", "degradation_pct"),
        key_header="metric",
        text=robustness_report(result),
        fallbacks=list(result.fallbacks),
    )


def _produce_scalability(mode: str, pe_counts: tuple, n_total: int,
                         runs: int, simulator: str,
                         seed: int) -> ArtifactData:
    from ..experiments.scalability import (
        efficiency_report,
        run_scaling_study,
    )

    result = run_scaling_study(
        mode=mode, pe_counts=pe_counts, n_total=n_total, runs=runs,
        simulator=simulator, seed=seed,
    )
    return ArtifactData(
        series={k: _seq(v) for k, v in result.efficiency.items()},
        keys=result.pe_counts,
        key_header="pes",
        text=efficiency_report(result),
        extra={"wasted": {k: _seq(v) for k, v in result.wasted.items()}},
    )


def _produce_css_sweep(k_values: tuple, p: int, simulator: str,
                       seed: int) -> ArtifactData:
    from ..experiments.report import series_table
    from ..experiments.tss_experiments import run_css_k_sweep

    sweep = run_css_k_sweep(
        k_values=k_values, p=p, simulator=simulator, seed=seed
    )
    series = {"CSS": _seq(sweep.values())}
    keys = tuple(sweep)
    text = (
        f"CSS(k) chunk-size ablation: p={p}, simulator={simulator}\n"
        + series_table(series, keys, key_header="speedup\\k")
    )
    return ArtifactData(
        series=series, keys=keys, key_header="k", text=text,
        platforms=_tss_platform_hashes((p,)),
    )


def _produce_remote_ratio(ratios: tuple, p: int, simulator: str,
                          seed: int) -> ArtifactData:
    from ..experiments.report import series_table
    from ..experiments.tss_experiments import run_remote_ratio_study

    sweep = run_remote_ratio_study(
        ratios=ratios, p=p, simulator=simulator, seed=seed
    )
    series = {"TSS": _seq(sweep.values())}
    keys = tuple(sweep)
    text = (
        f"remote-reference ratio ablation: p={p}, simulator={simulator}\n"
        + series_table(series, keys, key_header="speedup\\ratio")
    )
    return ArtifactData(
        series=series, keys=keys, key_header="ratio", text=text,
        platforms=_tss_platform_hashes((p,)),
    )


def _produce_tss_shapes(experiment: int, p: int, simulator: str,
                        seed: int) -> ArtifactData:
    from ..experiments.report import series_table
    from ..experiments.tss_experiments import (
        TSS_WORKLOAD_SHAPES,
        run_tss_workload_study,
    )

    study = run_tss_workload_study(
        experiment=experiment, p=p, simulator=simulator, seed=seed
    )
    shapes = tuple(s for s in TSS_WORKLOAD_SHAPES if s in study)
    techniques = list(study[shapes[0]])
    series = {
        t: [float(study[s][t]) for s in shapes] for t in techniques
    }
    text = (
        f"workload-shape ablation: experiment {experiment}, p={p}, "
        f"simulator={simulator}\n"
        + series_table(series, shapes, key_header="speedup\\shape")
    )
    return ArtifactData(
        series=series, keys=shapes, key_header="shape", text=text,
        platforms=_tss_platform_hashes((p,)),
    )


# --- the registry -----------------------------------------------------------

_SPECS = [
    ArtifactSpec(
        id="table2",
        title="Required parameters per DLS technique",
        paper_artifact="Table II",
        kind="table",
        producer=_produce_table2,
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
              "simulator": "msg", "seed": 1993},
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
              "simulator": "msg", "seed": 1993},
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
              "simulator": "msg", "seed": 2017},
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
              "simulator": "msg", "seed": 2017},
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
              "simulator": "msg", "seed": 2017},
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
              "simulator": "msg", "seed": 2017},
    ),
    ArtifactSpec(
        id="fig9",
        title="FAC per-run wasted-time distribution (outlier study)",
        paper_artifact="Figure 9",
        kind="hist",
        producer=_produce_fig9,
        quick={"runs": 60, "simulator": "direct-batch", "seed": 1997},
        full={"runs": 1000, "simulator": "direct", "seed": 1997},
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
              "simulator": "msg", "seed": 1993},
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
              "simulator": "msg", "seed": 1993},
    ),
    ArtifactSpec(
        id="tss-shapes",
        title="Technique speedups across the four loop workload shapes",
        paper_artifact="ablation (Tzen & Ni loop suite)",
        kind="bars",
        producer=_produce_tss_shapes,
        quick={"experiment": 1, "p": 16, "simulator": "msg-fast",
               "seed": 1993},
        full={"experiment": 1, "p": 64, "simulator": "msg",
              "seed": 1993},
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
