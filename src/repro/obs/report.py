"""Summarise a run journal: the ``repro-dls stats`` report.

Reads the JSONL journal written by :mod:`repro.obs.journal` and answers
the questions an auditor asks first: what environment produced the runs,
how fast was each backend (events per host second), which tasks
dominated the wall time (with a wall-time histogram), and which
requested backends silently — no longer silently — degraded to a
fallback.  Journals written by the figure pipeline (``artifact``
records) and the advisor service (``advise`` records: query counts,
p50/p95 latency, cache-hit share) get their own sections.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Sequence

from .metrics import Histogram

__all__ = ["load_journal", "summarize_journal"]


#: per record kind, the fields the journal readers (this report and
#: ``repro.obs.timeline.chrome_trace_from_journal``) add up or format as
#: numbers; ``t_s`` is read as one on every record
_NUMERIC_FIELDS: dict[str, tuple[str, ...]] = {
    "task": ("runs", "wall_time_s", "events", "lost_chunks", "lost_tasks"),
    "cache": ("saved_wall_s",),
    "progress": ("elapsed_s", "events_per_s"),
    "artifact": ("fallbacks", "elapsed_s"),
    "advise": ("cache_hits", "cache_misses", "elapsed_s"),
}

#: per record kind, the fields the readers format as text, use as keys
#: or count (``files``), with the type each must have where present
_TYPED_FIELDS: dict[str, dict[str, type]] = {
    "task": dict.fromkeys(("technique", "backend", "requested", "scenario"),
                          str),
    "cache": {"op": str},
    "fallback": dict.fromkeys(("requested", "chosen", "reason"), str),
    "artifact": {"artifact": str, "mode": str, "plot": str, "files": list},
    "advise": {"best": str},
}


def load_journal(path: str | Path) -> list[dict]:
    """Parse a JSONL journal; every non-empty line must be a JSON object.

    A record whose field listed in ``_NUMERIC_FIELDS`` (or ``t_s``) holds
    anything but a finite number, or whose field listed in
    ``_TYPED_FIELDS`` is present with another type, is refused with a
    ``ValueError`` naming the line and the field, before a reader trips
    over it.
    """
    records: list[dict] = []
    for lineno, line in enumerate(
        Path(path).read_text().splitlines(), start=1
    ):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path}:{lineno}: invalid journal line ({exc})"
            ) from None
        if not isinstance(record, dict):
            raise ValueError(
                f"{path}:{lineno}: journal line is not a JSON object"
            )
        kind = record.get("kind")
        if not isinstance(kind, str):
            kind = None
        for name in ("t_s", *_NUMERIC_FIELDS.get(kind, ())):
            value = record.get(name, 0)
            if isinstance(value, bool) or not isinstance(
                value, (int, float)
            ) or not math.isfinite(value):
                raise ValueError(
                    f"{path}:{lineno}: field {name!r} of a {kind!r} "
                    f"record is not a number: {value!r}"
                )
        for name, expected in _TYPED_FIELDS.get(kind, {}).items():
            if name in record and not isinstance(record[name], expected):
                raise ValueError(
                    f"{path}:{lineno}: field {name!r} of a {kind!r} "
                    f"record is not a {expected.__name__}: "
                    f"{record[name]!r}"
                )
        records.append(record)
    return records


def _task_label(record: dict) -> str:
    return (
        f"{record.get('technique', '?')}"
        f"(n={record.get('n', '?')}, p={record.get('p', '?')})"
    )


def summarize_journal(
    records: Sequence[dict], top: int = 5
) -> str:
    """A human-readable summary of a journal's records."""
    provenance = next(
        (r for r in records if r.get("kind") == "provenance"), None
    )
    tasks = [r for r in records if r.get("kind") == "task"]
    fallbacks = [r for r in records if r.get("kind") == "fallback"]

    lines: list[str] = [f"{len(records)} journal record(s): "
                        f"{len(tasks)} task(s), {len(fallbacks)} fallback(s)"]
    if provenance is not None:
        workers = provenance.get("repro_workers")
        lines.append(
            "provenance: repro "
            f"{provenance.get('package_version', '?')}, "
            f"python {provenance.get('python', '?')} on "
            f"{provenance.get('system', '?')}/"
            f"{provenance.get('machine', '?')}, "
            f"REPRO_WORKERS={workers if workers else '-'}"
        )

    if not tasks:
        lines.append("")
        lines.append(
            "no task records — provenance-only journal; run a campaign "
            "or `repro-dls simulate`/`figures` with --trace to record "
            "tasks"
        )

    if tasks:
        per_backend: dict[str, dict[str, float]] = {}
        for record in tasks:
            agg = per_backend.setdefault(
                record.get("backend", "?"),
                {"tasks": 0, "runs": 0, "wall": 0.0, "events": 0},
            )
            agg["tasks"] += 1
            agg["runs"] += record.get("runs", 0)
            agg["wall"] += record.get("wall_time_s", 0.0)
            agg["events"] += record.get("events", 0)
        lines.append("")
        lines.append(
            f"  {'backend':<14s} {'tasks':>6s} {'runs':>7s} "
            f"{'wall time':>10s} {'events':>12s} {'events/s':>10s}"
        )
        for backend in sorted(per_backend):
            agg = per_backend[backend]
            rate = agg["events"] / agg["wall"] if agg["wall"] > 0 else 0.0
            lines.append(
                f"  {backend:<14s} {int(agg['tasks']):>6d} "
                f"{int(agg['runs']):>7d} {agg['wall']:>9.2f}s "
                f"{int(agg['events']):>12d} {rate:>10.0f}"
            )

        slowest = sorted(
            tasks, key=lambda r: r.get("wall_time_s", 0.0), reverse=True
        )[:top]
        lines.append("")
        lines.append(f"slowest task(s) (top {len(slowest)}):")
        for rank, record in enumerate(slowest, start=1):
            lines.append(
                f"  {rank}. {_task_label(record):<28s} "
                f"{record.get('backend', '?'):<14s} "
                f"{record.get('wall_time_s', 0.0):>8.3f}s "
                f"({record.get('runs', 0)} run(s))"
            )

        wall = Histogram("task_wall_seconds")
        wall.observe_many(r.get("wall_time_s", 0.0) for r in tasks)
        lines.append("")
        lines.append(
            "task wall-time histogram "
            f"(mean {wall.mean:.3f}s, max {wall.max:.3f}s):"
        )
        lines.append(wall.format_ascii(width=32))

    cache_ops: dict[str, int] = {}
    saved_wall_s = 0.0
    for record in records:
        if record.get("kind") != "cache":
            continue
        op = record.get("op", "?")
        cache_ops[op] = cache_ops.get(op, 0) + 1
        if op == "hit":
            saved_wall_s += record.get("saved_wall_s", 0.0)
    if cache_ops:
        hits = cache_ops.get("hit", 0)
        misses = cache_ops.get("miss", 0)
        lookups = hits + misses
        rate = 100.0 * hits / lookups if lookups else 0.0
        lines.append("")
        lines.append(
            f"result cache: {hits} hit(s), {misses} miss(es), "
            f"{cache_ops.get('store', 0)} store(s), "
            f"{cache_ops.get('verify', 0)} verified — "
            f"hit-rate {rate:.1f}%, "
            f"est. {saved_wall_s:.2f}s of simulation saved"
        )

    perturbed = [r for r in tasks if r.get("scenario")]
    if perturbed:
        by_scenario: dict[str, dict[str, int]] = {}
        for record in perturbed:
            agg = by_scenario.setdefault(
                record["scenario"],
                {"tasks": 0, "runs": 0, "lost_chunks": 0, "lost_tasks": 0},
            )
            agg["tasks"] += 1
            agg["runs"] += record.get("runs", 0)
            agg["lost_chunks"] += record.get("lost_chunks", 0)
            agg["lost_tasks"] += record.get("lost_tasks", 0)
        lines.append("")
        lines.append("perturbation scenarios:")
        for name in sorted(by_scenario):
            agg = by_scenario[name]
            lines.append(
                f"  {name}: {agg['tasks']} task(s), {agg['runs']} run(s) "
                f"— {agg['lost_chunks']} chunk(s) lost to faults "
                f"({agg['lost_tasks']} task(s) requeued)"
            )

    artifacts = [r for r in records if r.get("kind") == "artifact"]
    if artifacts:
        total_files = sum(len(r.get("files", [])) for r in artifacts)
        total_fb = sum(r.get("fallbacks", 0) for r in artifacts)
        total_s = sum(r.get("elapsed_s", 0.0) for r in artifacts)
        lines.append("")
        lines.append(
            f"figure pipeline: {len(artifacts)} artifact(s), "
            f"{total_files} file(s) emitted in {total_s:.2f}s, "
            f"{total_fb} fallback(s)"
        )
        slowest_artifacts = sorted(
            artifacts, key=lambda r: r.get("elapsed_s", 0.0), reverse=True
        )[:top]
        for record in slowest_artifacts:
            lines.append(
                f"  {record.get('artifact', '?'):<14s} "
                f"{record.get('mode', '?'):<6s} "
                f"{record.get('elapsed_s', 0.0):>8.3f}s "
                f"(plot={record.get('plot', '?')})"
            )

    advises = [r for r in records if r.get("kind") == "advise"]
    if advises:
        latencies = sorted(r.get("elapsed_s", 0.0) for r in advises)

        def pct(fraction: float) -> float:
            # nearest-rank percentile: p95 of 3 samples is the max
            rank = math.ceil(fraction * len(latencies))
            return latencies[max(0, min(len(latencies), rank) - 1)]

        hits = sum(r.get("cache_hits", 0) for r in advises)
        misses = sum(r.get("cache_misses", 0) for r in advises)
        lookups = hits + misses
        hit_share = 100.0 * hits / lookups if lookups else 0.0
        best_counts: dict[str, int] = {}
        for record in advises:
            best = record.get("best", "?")
            best_counts[best] = best_counts.get(best, 0) + 1
        favorite = max(best_counts, key=best_counts.get)  # type: ignore[arg-type]
        lines.append("")
        lines.append(
            f"advisor: {len(advises)} quer(y/ies) — latency "
            f"p50 {pct(0.50):.3f}s, p95 {pct(0.95):.3f}s; "
            f"cache-hit share {hit_share:.1f}% "
            f"({hits}/{lookups} lookup(s))"
        )
        lines.append(
            "  most recommended: " + ", ".join(
                f"{name} x{count}" for name, count in sorted(
                    best_counts.items(), key=lambda kv: (-kv[1], kv[0])
                )[:top]
            )
            + (f" (favorite: {favorite})" if len(best_counts) > 1 else "")
        )

    progress = [r for r in records if r.get("kind") == "progress"]
    if progress:
        last = progress[-1]
        lines.append("")
        lines.append(
            f"progress: {len(progress)} heartbeat(s), last at "
            f"{last.get('elapsed_s', 0.0):.2f}s — "
            f"{last.get('done', '?')}/{last.get('total', '?')} done, "
            f"{last.get('events_per_s', 0.0):,.0f} ev/s"
        )

    if fallbacks:
        counts: dict[tuple[str, str, str], int] = {}
        for record in fallbacks:
            key = (
                record.get("requested", "?"),
                record.get("chosen", "?"),
                record.get("reason", ""),
            )
            counts[key] = counts.get(key, 0) + 1
        lines.append("")
        lines.append("capability fallbacks:")
        for (requested, chosen, reason), count in sorted(counts.items()):
            lines.append(f"  {requested} -> {chosen}  x{count}")
            if reason:
                lines.append(f"    {reason}")
    elif tasks:
        lines.append("")
        lines.append(
            "fallbacks: none — every task ran on its requested backend"
        )

    return "\n".join(lines)
