"""The one-command artifact pipeline (``repro-dls figures``).

Regenerates every figure and table of the paper — plus the extension
studies — through the result cache, with a provenance manifest per
artifact and per run, and checks the output against committed
references for drift.  See :mod:`repro.figures.registry` for what is
registered, :mod:`repro.figures.pipeline` for how artifacts are
emitted, and :mod:`repro.figures.drift` for the check.
"""

from .drift import (
    DriftFinding,
    DriftReport,
    check_against_reference,
    default_reference_dir,
)
from .manifest import (
    MANIFEST_SCHEMA,
    ArtifactManifest,
    RunManifest,
    sha256_file,
    validate_manifest,
)
from .pipeline import generate_artifacts, produce_artifact, select_artifacts
from .plotting import plot_artifact, plot_available
from .registry import (
    ARTIFACTS,
    ArtifactData,
    ArtifactSpec,
    artifact_ids,
    get_artifact,
)

__all__ = [
    "ARTIFACTS",
    "ArtifactData",
    "ArtifactManifest",
    "ArtifactSpec",
    "DriftFinding",
    "DriftReport",
    "MANIFEST_SCHEMA",
    "RunManifest",
    "artifact_ids",
    "check_against_reference",
    "default_reference_dir",
    "generate_artifacts",
    "get_artifact",
    "plot_artifact",
    "plot_available",
    "produce_artifact",
    "select_artifacts",
    "sha256_file",
    "validate_manifest",
]
