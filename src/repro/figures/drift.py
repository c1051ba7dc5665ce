"""Drift detection: current artifacts versus committed references.

``repro-dls figures --check`` regenerates the quick artifacts and runs
them through :func:`check_against_reference`, which diffs each
artifact's CSV cell by cell against the committed reference
(``src/repro/experiments/data/figures/``), each manifest field by
field, and reads the claim outcomes the current manifest recorded.
Findings are classified so the caller can tell *what* drifted:

* ``numeric`` — a cell moved beyond the tolerance (fatal),
* ``structure`` — series/keys/files appeared or vanished (fatal),
* ``claim`` — a registry claim did not hold on the artifact (fatal:
  the output no longer shows what the paper reports),
* ``seed`` / ``scenario`` / ``params`` — the inputs changed (fatal:
  matching numbers from different inputs are not a reproduction),
* ``fallback`` — the backend degradations differ (fatal: the results
  were produced by a different code path),
* ``environment`` — python/package/machine differ (warning only: the
  reference was generated on one interpreter, CI runs another; the
  numeric check is the arbiter of whether that matters).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .manifest import ArtifactManifest
from .registry import ARTIFACTS

__all__ = [
    "DriftFinding",
    "DriftReport",
    "check_against_reference",
    "default_reference_dir",
]

#: environment keys whose changes are reported but never fatal
_ENV_WARN_KEYS = (
    "package_version", "python", "implementation", "system", "machine",
    "repro_workers",
)


def default_reference_dir() -> Path:
    """The committed reference tree the quick artifacts are checked against."""
    from .. import experiments

    return Path(experiments.__file__).parent / "data" / "figures"


@dataclass(frozen=True)
class DriftFinding:
    """One detected deviation from the reference."""

    artifact: str
    category: str        # numeric|structure|claim|seed|scenario|params|fallback|environment
    detail: str
    fatal: bool = True

    def describe(self) -> str:
        severity = "DRIFT" if self.fatal else "note"
        return f"[{severity}:{self.category}] {self.artifact}: {self.detail}"


@dataclass
class DriftReport:
    """All findings of one check run."""

    findings: list[DriftFinding] = field(default_factory=list)
    checked: list[str] = field(default_factory=list)

    @property
    def fatal(self) -> list[DriftFinding]:
        return [f for f in self.findings if f.fatal]

    @property
    def warnings(self) -> list[DriftFinding]:
        return [f for f in self.findings if not f.fatal]

    @property
    def ok(self) -> bool:
        return not self.fatal

    def describe(self) -> str:
        lines = [
            f"checked {len(self.checked)} artifact(s): "
            f"{len(self.fatal)} drift(s), {len(self.warnings)} note(s)"
        ]
        lines.extend(f.describe() for f in self.findings)
        return "\n".join(lines)


def _check_numeric(artifact: str, current_csv: Path, reference_csv: Path,
                   tolerance_percent: float,
                   report: DriftReport) -> None:
    """Diff two CSVs: series present on one side only, then every cell.

    Cells are compared relatively, which is undefined against a zero
    reference (table2's X-matrix, zero fault counters); such cells must
    match *exactly*.
    """
    from ..experiments.report import read_csv_series

    current, cur_keys, _ = read_csv_series(current_csv)
    reference, ref_keys, _ = read_csv_series(reference_csv)
    if cur_keys != ref_keys:
        report.findings.append(DriftFinding(
            artifact, "structure",
            f"sweep keys differ: {cur_keys} vs reference {ref_keys}",
        ))
        return
    for side, only in (("current", set(current) - set(reference)),
                       ("reference", set(reference) - set(current))):
        for technique in sorted(only):
            report.findings.append(DriftFinding(
                artifact, "structure",
                f"{artifact} / {technique}: only in the {side} campaign",
            ))
    for technique in [t for t in current if t in reference]:
        for key, cur, ref in zip(cur_keys, current[technique],
                                 reference[technique], strict=True):
            if ref == 0.0:
                if cur != 0.0:
                    report.findings.append(DriftFinding(
                        artifact, "numeric",
                        f"{technique} @ {key}: {cur!r} vs reference 0.0",
                    ))
                continue
            relative = (cur - ref) / ref * 100.0
            if abs(relative) > tolerance_percent:
                report.findings.append(DriftFinding(
                    artifact, "numeric",
                    f"{artifact} / {technique} @ {key}: "
                    f"{relative:+.1f}% vs reference",
                ))


def _check_manifest(artifact: str, current: ArtifactManifest,
                    reference: ArtifactManifest,
                    report: DriftReport) -> None:
    if current.seeds != reference.seeds:
        report.findings.append(DriftFinding(
            artifact, "seed",
            f"seeds {current.seeds} vs reference {reference.seeds}",
        ))
    if current.scenario != reference.scenario:
        report.findings.append(DriftFinding(
            artifact, "scenario",
            f"scenario {current.scenario!r} vs reference "
            f"{reference.scenario!r}",
        ))
    if current.params != reference.params:
        changed = sorted(
            k for k in set(current.params) | set(reference.params)
            if current.params.get(k) != reference.params.get(k)
        )
        report.findings.append(DriftFinding(
            artifact, "params",
            f"parameters differ: {', '.join(changed)}",
        ))
    cur_fb = [
        {k: v for k, v in e.items() if k != "task"}
        for e in current.fallbacks
    ]
    ref_fb = [
        {k: v for k, v in e.items() if k != "task"}
        for e in reference.fallbacks
    ]
    if cur_fb != ref_fb:
        report.findings.append(DriftFinding(
            artifact, "fallback",
            f"{len(current.fallbacks)} fallback event(s) vs reference "
            f"{len(reference.fallbacks)} (or different degradations)",
        ))
    if current.requested_simulator != reference.requested_simulator:
        report.findings.append(DriftFinding(
            artifact, "params",
            f"simulator {current.requested_simulator!r} vs reference "
            f"{reference.requested_simulator!r}",
        ))
    cur_platform = current.environment.get("platform_xml_sha256")
    ref_platform = reference.environment.get("platform_xml_sha256")
    if cur_platform != ref_platform:
        report.findings.append(DriftFinding(
            artifact, "params",
            "platform XML hashes differ from the reference",
        ))
    for key in _ENV_WARN_KEYS:
        cur = current.environment.get(key)
        ref = reference.environment.get(key)
        if cur != ref:
            report.findings.append(DriftFinding(
                artifact, "environment",
                f"{key}: {cur!r} vs reference {ref!r}", fatal=False,
            ))


def check_against_reference(
    out_dir: str | Path,
    reference_dir: str | Path | None = None,
    artifacts: Sequence[str] | None = None,
    tolerance_percent: float = 1e-6,
) -> DriftReport:
    """Diff generated artifacts in ``out_dir`` against the references.

    The default tolerance is effectively exact: quick-mode runs are
    seeded and the fast backends are bit-identical to their siblings,
    so any numeric movement means the implementation changed.  Loosen
    ``tolerance_percent`` when checking stochastic full-mode output.
    """
    out = Path(out_dir)
    reference = Path(reference_dir) if reference_dir is not None \
        else default_reference_dir()
    report = DriftReport()
    for artifact in (artifacts if artifacts is not None else ARTIFACTS):
        report.checked.append(artifact)
        ref_csv = reference / f"{artifact}.csv"
        ref_manifest = reference / f"{artifact}.manifest.json"
        cur_csv = out / f"{artifact}.csv"
        cur_manifest = out / f"{artifact}.manifest.json"
        missing = [
            str(p) for p in (ref_csv, ref_manifest) if not p.exists()
        ]
        if missing:
            report.findings.append(DriftFinding(
                artifact, "structure",
                f"reference file(s) missing: {', '.join(missing)} "
                "(regenerate with scripts/update_figure_references.py)",
            ))
            continue
        missing = [
            str(p) for p in (cur_csv, cur_manifest) if not p.exists()
        ]
        if missing:
            report.findings.append(DriftFinding(
                artifact, "structure",
                f"generated file(s) missing: {', '.join(missing)}",
            ))
            continue
        _check_numeric(
            artifact, cur_csv, ref_csv, tolerance_percent, report
        )
        current = ArtifactManifest.load(cur_manifest)
        _check_manifest(
            artifact, current, ArtifactManifest.load(ref_manifest), report
        )
        report.findings.extend(
            DriftFinding(artifact, "claim", f"claim failed: {name}")
            for name, holds in current.claims.items() if not holds
        )
    return report
