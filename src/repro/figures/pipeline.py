"""The one-command artifact pipeline behind ``repro-dls figures``.

:func:`generate_artifacts` walks the registry
(:mod:`repro.figures.registry`), produces every artifact through the
active result cache, and writes per artifact:

* ``<id>.csv`` — the tidy series (``csv_text`` format, exact floats),
* ``<id>.txt`` — the human text rendering (also the plot stand-in when
  matplotlib is absent),
* ``<id>.png`` — when matplotlib is importable,
* ``<id>.manifest.json`` — the provenance manifest
  (:class:`repro.figures.manifest.ArtifactManifest`),

plus a run-level ``run.manifest.json`` aggregating cache traffic,
fallback totals, claim outcomes and the digests of every data file.
The CSV and text files are rendered to bytes first: a file whose bytes
are already on disk is not rewritten, and its digest is taken from the
bytes in hand.  Manifests hold timings and are written every time.
Each artifact is also journalled (``kind: "artifact"``) and counted in
the metrics registry when those sinks are active.
:func:`produce_artifact` is the step ``repro-dls run ID`` shares with
it: one artifact, the backend fallbacks it caused, and the outcome of
each registry claim on it.
"""

from __future__ import annotations

import hashlib
import time
from pathlib import Path
from typing import Callable, Sequence

from ..backends import FallbackEvent, drain_fallback_events
from ..cache import active_cache
from ..obs import journal as obs_journal
from ..obs import metrics as obs_metrics
from ..obs.provenance import capture_provenance
from .manifest import ArtifactManifest, RunManifest, sha256_file
from .registry import ARTIFACTS, ArtifactData, ArtifactSpec, get_artifact
from .plotting import plot_artifact

__all__ = ["generate_artifacts", "produce_artifact", "select_artifacts"]

#: cache counters surfaced in manifests (a delta per artifact)
_CACHE_KEYS = ("hits", "misses", "stores", "corrupt")


def select_artifacts(only: Sequence[str] | None) -> list[ArtifactSpec]:
    """Resolve a ``--only`` selection (None = the whole registry)."""
    if not only:
        return list(ARTIFACTS.values())
    return [get_artifact(artifact_id) for artifact_id in only]


def _cache_counters() -> dict[str, int] | None:
    cache = active_cache()
    if cache is None:
        return None
    stats = cache.stats
    return {key: getattr(stats, key) for key in _CACHE_KEYS}


def _cache_delta(before: dict | None, after: dict | None) -> dict:
    if before is None or after is None:
        return {}
    return {key: after[key] - before[key] for key in _CACHE_KEYS}


def _write_if_changed(path: Path, data: bytes) -> str:
    """Write ``data`` to ``path`` unless the file holds exactly it.

    Returns the SHA-256 hex digest of ``data``, the manifest's digest of
    the file.  A re-run into the same directory rewrites no unchanged
    data file, so it neither pays for the write nor waits on the disk.
    """
    try:
        unchanged = (path.stat().st_size == len(data)
                     and path.read_bytes() == data)
    except FileNotFoundError:
        unchanged = False
    if not unchanged:
        path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def produce_artifact(
    spec: ArtifactSpec, mode: str, /, **overrides
) -> tuple[ArtifactData, list[FallbackEvent], dict[str, bool]]:
    """Produce one artifact, its fallbacks and its claim outcomes.

    The process-wide fallback log is drained before the producer runs,
    so what is in it afterwards belongs to this artifact.  ``overrides``
    replace parameters of ``mode``'s set; ``mode`` is positional-only,
    so every producer parameter can be one.  The spec's claims state what
    that set must show, so they are evaluated only when ``overrides``
    leave it unchanged; otherwise the outcome map is empty.
    """
    drain_fallback_events()
    data = spec.produce(mode, **overrides)
    events = drain_fallback_events()
    params = spec.params(mode)
    claims = (spec.check_claims(mode, data)
              if {**params, **overrides} == params else {})
    return data, events, claims


def generate_artifacts(
    out_dir: str | Path,
    mode: str = "quick",
    only: Sequence[str] | None = None,
    plot: bool = True,
    echo: Callable[[str], None] | None = None,
) -> RunManifest:
    """Produce every selected artifact into ``out_dir``.

    Returns the run manifest (also written as
    ``out_dir/run.manifest.json``).  ``echo`` receives one progress
    line per artifact when given.  Runs go through whatever result
    cache is active (:func:`repro.cache.active_cache`) — activate one
    first to make re-runs cache-dominated.
    """
    from ..experiments.report import csv_text

    if mode not in ("quick", "full"):
        raise ValueError(f"mode must be 'quick' or 'full', got {mode!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    specs = select_artifacts(only)

    run = RunManifest(mode=mode, environment=capture_provenance())
    run_cache_before = _cache_counters()
    t_run = time.perf_counter()

    for spec in specs:
        cache_before = _cache_counters()
        t0 = time.perf_counter()
        data, events, claims = produce_artifact(spec, mode)
        elapsed = time.perf_counter() - t0
        fallbacks = [event.to_json() for event in events]

        params = spec.params(mode)
        requested = params.get("simulator")
        backends = sorted(
            {requested, *(e["chosen"] for e in fallbacks)} - {None}
        ) if requested else []

        rendered = {
            f"{spec.id}.csv": csv_text(data.series, data.keys,
                                       key_header=data.key_header),
            f"{spec.id}.txt": data.text + "\n" if data.text else "",
        }
        files = {name: _write_if_changed(out / name, text.encode())
                 for name, text in rendered.items()}

        plot_mode = "none"
        if plot:
            png_path = out / f"{spec.id}.png"
            plot_mode = plot_artifact(spec, data, png_path)
            if plot_mode == "png":
                files[png_path.name] = sha256_file(png_path)

        environment = capture_provenance()
        if data.platforms:
            environment["platform_xml_sha256"] = dict(data.platforms)
        manifest = ArtifactManifest(
            artifact=spec.id,
            title=spec.title,
            paper_artifact=spec.paper_artifact,
            mode=mode,
            params={k: list(v) if isinstance(v, tuple) else v
                    for k, v in params.items()},
            seeds={k: v for k, v in params.items() if "seed" in k},
            environment=environment,
            requested_simulator=requested,
            backends=backends,
            fallbacks=fallbacks,
            cache=_cache_delta(cache_before, _cache_counters()),
            scenario=params.get("scenario"),
            plot=plot_mode,
            files=files,
            claims=claims,
            elapsed_s=elapsed,
        )
        manifest_path = out / f"{spec.id}.manifest.json"
        manifest.save(manifest_path)

        run.artifacts.append(spec.id)
        run.manifests.append(manifest_path.name)
        run.fallbacks += len(fallbacks)
        run.files.update(files)
        run.claims[spec.id] = claims

        journal = obs_journal.active_journal()
        if journal is not None:
            journal.write({
                "kind": "artifact",
                "artifact": spec.id,
                "mode": mode,
                "files": sorted(files),
                "fallbacks": len(fallbacks),
                "cache": manifest.cache,
                "plot": plot_mode,
                "elapsed_s": round(elapsed, 6),
            })
        registry = obs_metrics.active_registry()
        if registry is not None:
            registry.counter(
                "artifacts_total", "artifacts emitted by the pipeline"
            ).incr(1)
            registry.histogram(
                "artifact_elapsed_seconds", "wall time per emitted artifact"
            ).observe(elapsed)

        if echo is not None:
            cache_note = ""
            if manifest.cache:
                cache_note = (
                    f", cache {manifest.cache['hits']}h/"
                    f"{manifest.cache['misses']}m"
                )
            fb_note = f", {len(fallbacks)} fallback(s)" if fallbacks else ""
            claim_note = (f", {sum(claims.values())}/{len(claims)} claim(s) "
                          "hold" if claims else "")
            echo(
                f"[{spec.id}] {spec.paper_artifact}: "
                f"{len(files)} file(s) in {elapsed:.2f}s "
                f"(plot={plot_mode}{cache_note}{fb_note}{claim_note})"
            )

    run.cache = _cache_delta(run_cache_before, _cache_counters())
    run.elapsed_s = time.perf_counter() - t_run
    run.save(out / "run.manifest.json")
    return run
