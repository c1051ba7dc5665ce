"""Provenance manifests: the machine-checkable record of an artifact.

Boulmier et al. (arXiv:1805.07998) stress that a reproduction is only
credible when environment, seeds, and deviations are captured alongside
the results.  Every artifact the pipeline (:mod:`repro.figures.pipeline`)
emits therefore ships with an :class:`ArtifactManifest` — environment
fingerprint, seeds, the backend actually chosen, fallback events, result
cache traffic, scenario descriptors, and SHA-256 digests of every
emitted file, and the outcome of every registry claim it was checked
against — and every pipeline run ships a :class:`RunManifest`
aggregating them.  The drift layer (:mod:`repro.figures.drift`) diffs
manifests field by field, distinguishing environment/seed/fallback
drift from numeric drift.

Manifests are plain JSON documents with a ``schema`` version;
:func:`validate_manifest` rejects structurally broken ones with the
list of violations instead of a bare boolean.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

__all__ = [
    "MANIFEST_SCHEMA",
    "ArtifactManifest",
    "RunManifest",
    "sha256_file",
    "validate_manifest",
]

#: manifest document schema version (bump on breaking shape changes)
MANIFEST_SCHEMA = 1


def sha256_file(path: str | Path) -> str:
    """Hex SHA-256 of a file's bytes (the manifest's digest format)."""
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass
class ArtifactManifest:
    """The provenance record of one emitted artifact.

    ``files`` maps emitted file names (relative to the output
    directory) to their SHA-256 hex digests; ``cache`` carries the
    result-cache traffic delta of producing this artifact (hits /
    misses / stores / corrupt); ``fallbacks`` holds the JSON form of
    every :class:`repro.backends.FallbackEvent` recorded while
    producing it — an empty list is a *claim* that every run stayed on
    its requested backend, and the drift check treats a change here as
    provenance drift.  ``claims`` maps each registry claim evaluated on
    the artifact to whether it held (empty when none was evaluated).
    """

    artifact: str
    title: str = ""
    paper_artifact: str = ""
    mode: str = "full"                      # "quick" | "full"
    params: dict = field(default_factory=dict)
    seeds: dict = field(default_factory=dict)
    environment: dict = field(default_factory=dict)
    requested_simulator: str | None = None
    backends: list[str] = field(default_factory=list)
    fallbacks: list[dict] = field(default_factory=list)
    cache: dict = field(default_factory=dict)
    scenario: str | None = None
    plot: str = "none"                      # "png" | "text" | "none"
    files: dict[str, str] = field(default_factory=dict)
    claims: dict[str, bool] = field(default_factory=dict)
    elapsed_s: float = 0.0
    schema: int = MANIFEST_SCHEMA

    def to_json(self) -> dict:
        return {
            "schema": self.schema,
            "artifact": self.artifact,
            "title": self.title,
            "paper_artifact": self.paper_artifact,
            "mode": self.mode,
            "params": dict(self.params),
            "seeds": dict(self.seeds),
            "environment": dict(self.environment),
            "requested_simulator": self.requested_simulator,
            "backends": list(self.backends),
            "fallbacks": [dict(e) for e in self.fallbacks],
            "cache": dict(self.cache),
            "scenario": self.scenario,
            "plot": self.plot,
            "files": dict(self.files),
            "claims": dict(self.claims),
            "elapsed_s": round(self.elapsed_s, 6),
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "ArtifactManifest":
        problems = validate_manifest(data, kind="artifact")
        if problems:
            raise ValueError(
                "invalid artifact manifest: " + "; ".join(problems)
            )
        return cls(
            artifact=data["artifact"],
            title=data.get("title", ""),
            paper_artifact=data.get("paper_artifact", ""),
            mode=data.get("mode", "full"),
            params=dict(data.get("params", {})),
            seeds=dict(data.get("seeds", {})),
            environment=dict(data.get("environment", {})),
            requested_simulator=data.get("requested_simulator"),
            backends=list(data.get("backends", [])),
            fallbacks=[dict(e) for e in data.get("fallbacks", [])],
            cache=dict(data.get("cache", {})),
            scenario=data.get("scenario"),
            plot=data.get("plot", "none"),
            files=dict(data.get("files", {})),
            claims=dict(data.get("claims", {})),
            elapsed_s=float(data.get("elapsed_s", 0.0)),
            schema=int(data["schema"]),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_json(), indent=1, sort_keys=True) + "\n"
        )

    @classmethod
    def load(cls, path: str | Path) -> "ArtifactManifest":
        return cls.from_json(json.loads(Path(path).read_text()))


@dataclass
class RunManifest:
    """The provenance record of one whole pipeline run.

    ``files`` digests every *data* file the run emitted (CSV, text
    renderings, plots) — deliberately not the per-artifact manifests,
    which carry volatile wall-time fields; digest stability across two
    identical runs is asserted on the data files.  ``claims`` collects
    the artifact manifests' claim outcomes by artifact id.
    """

    mode: str = "full"
    artifacts: list[str] = field(default_factory=list)
    manifests: list[str] = field(default_factory=list)
    environment: dict = field(default_factory=dict)
    cache: dict = field(default_factory=dict)
    fallbacks: int = 0
    files: dict[str, str] = field(default_factory=dict)
    claims: dict[str, dict[str, bool]] = field(default_factory=dict)
    elapsed_s: float = 0.0
    schema: int = MANIFEST_SCHEMA

    def to_json(self) -> dict:
        return {
            "schema": self.schema,
            "mode": self.mode,
            "artifacts": list(self.artifacts),
            "manifests": list(self.manifests),
            "environment": dict(self.environment),
            "cache": dict(self.cache),
            "fallbacks": self.fallbacks,
            "files": dict(self.files),
            "claims": {k: dict(v) for k, v in self.claims.items()},
            "elapsed_s": round(self.elapsed_s, 6),
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "RunManifest":
        problems = validate_manifest(data, kind="run")
        if problems:
            raise ValueError("invalid run manifest: " + "; ".join(problems))
        return cls(
            mode=data.get("mode", "full"),
            artifacts=list(data.get("artifacts", [])),
            manifests=list(data.get("manifests", [])),
            environment=dict(data.get("environment", {})),
            cache=dict(data.get("cache", {})),
            fallbacks=int(data.get("fallbacks", 0)),
            files=dict(data.get("files", {})),
            claims={k: dict(v) for k, v in data.get("claims", {}).items()},
            elapsed_s=float(data.get("elapsed_s", 0.0)),
            schema=int(data["schema"]),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_json(), indent=1, sort_keys=True) + "\n"
        )

    @classmethod
    def load(cls, path: str | Path) -> "RunManifest":
        return cls.from_json(json.loads(Path(path).read_text()))


def _digest_problems(files: object, prefix: str) -> list[str]:
    problems: list[str] = []
    if not isinstance(files, Mapping):
        return [f"{prefix}: 'files' must be an object"]
    for name, digest in files.items():
        if not isinstance(digest, str) or len(digest) != 64 or any(
            c not in "0123456789abcdef" for c in digest
        ):
            problems.append(
                f"{prefix}: digest of {name!r} is not hex SHA-256"
            )
    return problems


def _claim_problems(claims: object, where: str) -> list[str]:
    if not isinstance(claims, Mapping):
        return [f"{where} must be an object"]
    return [
        f"{where}: outcome of {name!r} is not a boolean"
        for name, holds in claims.items() if not isinstance(holds, bool)
    ]


def validate_manifest(data: Mapping, kind: str = "artifact") -> list[str]:
    """Structural violations of a manifest document (empty = valid).

    ``kind`` selects the document shape: ``"artifact"`` for a
    per-artifact manifest, ``"run"`` for the pipeline-level one.
    """
    if kind not in ("artifact", "run"):
        raise ValueError(f"kind must be 'artifact' or 'run', got {kind!r}")
    problems: list[str] = []
    if not isinstance(data, Mapping):
        return ["manifest is not a JSON object"]
    schema = data.get("schema")
    if not isinstance(schema, int):
        problems.append("missing integer 'schema'")
    elif schema > MANIFEST_SCHEMA:
        problems.append(
            f"schema {schema} is newer than supported {MANIFEST_SCHEMA}"
        )
    if data.get("mode") not in ("quick", "full"):
        problems.append("'mode' must be 'quick' or 'full'")
    if not isinstance(data.get("environment"), Mapping):
        problems.append("missing object 'environment'")
    problems.extend(_digest_problems(data.get("files", {}), "files"))
    if kind == "artifact":
        if not data.get("artifact") or not isinstance(
            data.get("artifact"), str
        ):
            problems.append("missing string 'artifact'")
        if not isinstance(data.get("seeds"), Mapping):
            problems.append("missing object 'seeds'")
        if not isinstance(data.get("fallbacks"), list):
            problems.append("'fallbacks' must be a list")
        if not isinstance(data.get("cache"), Mapping):
            problems.append("'cache' must be an object")
        plot = data.get("plot", "none")
        if plot not in ("png", "text", "none"):
            problems.append(f"'plot' must be png/text/none, got {plot!r}")
        problems.extend(_claim_problems(data.get("claims", {}), "'claims'"))
    else:
        if not isinstance(data.get("artifacts"), list) or not all(
            isinstance(a, str) for a in data.get("artifacts", [])
        ):
            problems.append("missing string list 'artifacts'")
        if not isinstance(data.get("fallbacks", 0), int):
            problems.append("'fallbacks' must be an integer")
        claims = data.get("claims", {})
        if not isinstance(claims, Mapping):
            problems.append("'claims' must be an object")
        else:
            for artifact, outcomes in claims.items():
                problems.extend(
                    _claim_problems(outcomes, f"'claims' of {artifact!r}")
                )
    return problems
