"""Reference ("published") values the reproductions compare against.

Two kinds of references exist, with different provenance:

**TSS speedups** (Figures 3a/4a) — digitized *by eye* from Figure 7/8 of
Tzen & Ni (1993) as reprinted in the paper.  They capture curve shapes
(who saturates, who tracks the ideal) to within roughly ±15 % and are
used only for the qualitative reproduced / not-reproduced verdicts of
Section IV-A.

**BOLD average wasted times** (Figures 5a..8a) — Hagerup's Table I values
are not available offline, so, exactly as the paper itself did when the
fictitious-platform route failed, the reference is *regenerated with a
replica of Hagerup's simulator*: the direct simulator, per-task sampling
(no Gamma shortcut), a fixed campaign seed, documented run counts.  The
values live in ``data/bold_reference.json`` (regenerate with
``python -m repro.experiments.published``), and the reproduction then
compares an independent implementation (the event-driven MSG simulator
with chunk-level sampling and different seeds) against them — the same
two-implementation verification the paper performs.  See DESIGN.md §3.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping

_DATA_DIR = Path(__file__).parent / "data"
_BOLD_REFERENCE_PATH = _DATA_DIR / "bold_reference.json"

#: campaign seed of the reference generation (fixed and documented)
BOLD_REFERENCE_SEED = 19971202

#: reference replications per task count — scaled to chunk-count cost;
#: SS dominates (one scheduling operation per task)
BOLD_REFERENCE_RUNS = {1024: 200, 8192: 60, 65536: 8, 524288: 3}

# --------------------------------------------------------------------------
# TSS (Figures 3a / 4a): digitized published speedups
# --------------------------------------------------------------------------

#: PE counts at which the curves were digitized
TSS_PUBLISHED_PES = (8, 16, 24, 32, 40, 48, 56, 64, 72, 80)

#: Experiment 1 (100,000 tasks, 110 us).  Anchors from the text: CSS with
#: k = n/p reaches speedup 69.2 at 72 PEs; SS saturates below 10 (lock
#: and scheduling bound); GSS(1) trails CSS; TSS tracks CSS closely.
_TSS_EXP1_PUBLISHED: dict[str, tuple[float, ...]] = {
    "SS": (3.6, 4.1, 4.4, 4.6, 4.7, 4.8, 4.9, 4.9, 5.0, 5.0),
    "CSS": (7.8, 15.5, 23.1, 30.6, 38.0, 45.2, 52.2, 59.0, 69.2, 70.5),
    "GSS(1)": (7.4, 14.4, 21.0, 27.2, 33.0, 38.5, 44.0, 49.0, 56.0, 60.0),
    "GSS(80)": (7.7, 15.2, 22.6, 29.8, 36.8, 43.6, 50.2, 56.6, 65.0, 67.0),
    "TSS": (7.8, 15.4, 22.9, 30.3, 37.5, 44.6, 51.5, 58.2, 67.5, 69.5),
}

#: Experiment 2 (10,000 tasks, 2 ms).  The coarser tasks lift SS's
#: saturation point but it still falls far short of linear; GSS(1)
#: likewise; CSS / GSS(5) / TSS stay near the ideal.
_TSS_EXP2_PUBLISHED: dict[str, tuple[float, ...]] = {
    "SS": (7.5, 14.0, 19.5, 24.0, 27.5, 30.0, 31.5, 32.5, 33.0, 33.5),
    "CSS": (7.8, 15.5, 23.0, 30.4, 37.6, 44.6, 51.4, 58.0, 64.5, 69.0),
    "GSS(1)": (7.3, 14.0, 20.2, 25.8, 31.0, 35.6, 39.8, 43.5, 47.0, 50.0),
    "GSS(5)": (7.7, 15.2, 22.5, 29.6, 36.5, 43.2, 49.6, 55.8, 62.0, 66.0),
    "TSS": (7.8, 15.4, 22.8, 30.1, 37.2, 44.0, 50.6, 57.0, 63.5, 68.0),
}


def tss_published_speedups(experiment: int) -> Mapping[str, tuple[float, ...]]:
    """The digitized published speedup curves of one TSS experiment."""
    if experiment == 1:
        return dict(_TSS_EXP1_PUBLISHED)
    if experiment == 2:
        return dict(_TSS_EXP2_PUBLISHED)
    raise ValueError(f"experiment must be 1 or 2, got {experiment}")


# --------------------------------------------------------------------------
# BOLD (Figures 5a..8a): regenerated reference values
# --------------------------------------------------------------------------


def bold_reference_available() -> bool:
    """Whether the generated reference data file exists."""
    return _BOLD_REFERENCE_PATH.exists()


def bold_reference(n: int) -> dict[str, list[float]]:
    """Reference average wasted times for the ``n``-task experiment.

    Returns technique -> one value per
    :data:`~repro.experiments.bold_experiments.BOLD_PE_COUNTS`.
    """
    data = _load_reference()
    key = str(n)
    if key not in data["experiments"]:
        known = sorted(int(k) for k in data["experiments"])
        raise KeyError(f"no reference for n={n}; known task counts: {known}")
    return {
        tech: list(values)
        for tech, values in data["experiments"][key]["values"].items()
    }


def bold_reference_metadata() -> dict:
    """Provenance of the reference data (seed, runs, generator)."""
    data = _load_reference()
    return data["metadata"]


_cache: dict | None = None


def _load_reference() -> dict:
    global _cache
    if _cache is None:
        if not bold_reference_available():
            raise FileNotFoundError(
                f"reference data missing at {_BOLD_REFERENCE_PATH}; "
                f"regenerate with: python -m repro.experiments.published"
            )
        with _BOLD_REFERENCE_PATH.open() as fh:
            _cache = json.load(fh)
    return _cache


def generate_bold_reference(
    path: Path | None = None,
    task_counts=None,
    runs_per_n: Mapping[int, int] | None = None,
    seed: int = BOLD_REFERENCE_SEED,
    verbose: bool = True,
) -> dict:
    """Regenerate the BOLD reference values (the Hagerup-replica side).

    Uses the direct simulator with *per-task* sampling, the POST_HOC
    accounting, and per-n run counts from :data:`BOLD_REFERENCE_RUNS`.
    Writes JSON to ``path`` (default: the packaged data file) and returns
    the document.
    """
    from ..workloads.distributions import ExponentialWorkload, PerTaskSampling
    from .bold_experiments import (
        BOLD_MU,
        BOLD_PE_COUNTS,
        BOLD_TASK_COUNTS,
        BOLD_TECHNIQUES,
        bold_cells,
    )

    if path is None:
        path = _BOLD_REFERENCE_PATH
    if task_counts is None:
        task_counts = BOLD_TASK_COUNTS
    if runs_per_n is None:
        runs_per_n = BOLD_REFERENCE_RUNS

    workload = PerTaskSampling(ExponentialWorkload(BOLD_MU))
    document = {
        "metadata": {
            "generator": "repro.directsim.DirectSimulator",
            "sampling": "per-task (PerTaskSampling, no Gamma shortcut)",
            "accounting": "post-hoc (idle average + h * chunks / p)",
            "seed": seed,
            "runs": {str(n): runs_per_n[n] for n in task_counts},
            "pe_counts": list(BOLD_PE_COUNTS),
            "note": (
                "Regenerated reference standing in for Hagerup (1997) "
                "Table I, which is unavailable offline; see DESIGN.md §3."
            ),
        },
        "experiments": {},
    }
    for n in task_counts:
        cells = bold_cells(
            n, BOLD_PE_COUNTS, BOLD_TECHNIQUES, runs_per_n[n], "direct",
            seed, workload=workload,
        )
        values = {t: [s.mean for s in cells[t]] for t in cells}
        if verbose:
            for technique, means in values.items():
                print(f"n={n} {technique}: {['%.2f' % v for v in means]}")
        document["experiments"][str(n)] = {
            "runs": runs_per_n[n],
            "values": values,
            "std": {t: [s.std for s in cells[t]] for t in cells},
        }
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        json.dump(document, fh, indent=1)
    if verbose:
        print(f"wrote {path}")
    global _cache
    _cache = None
    return document


if __name__ == "__main__":  # pragma: no cover - manual regeneration entry
    generate_bold_reference()
