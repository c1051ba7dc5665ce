"""Schedule visualisation: ASCII Gantt charts and utilisation tables.

The terminal Gantt renderer and the per-worker utilisation table live
here; the trace exporters — Paje (SimGrid's format) and the Chrome
Trace Event Format — live in :mod:`repro.obs.timeline`.

Every renderer requires the run to carry a chunk log; a run without one
fails with an actionable error naming the flags that record one
(``record_chunks=True`` on the simulators, ``collect_chunk_log=True``
on :class:`~repro.experiments.runner.RunTask`).
"""

from __future__ import annotations

from ..obs.timeline import require_chunk_log
from ..results import ChunkExecution, RunResult

__all__ = [
    "ascii_gantt",
    "utilization_summary",
]


def ascii_gantt(
    result: RunResult,
    width: int = 72,
    max_workers: int = 32,
) -> str:
    """Render a run's chunk executions as a per-worker timeline.

    Each worker gets one row; chunk executions are painted with cycling
    glyphs so adjacent chunks are distinguishable; idle time shows as
    dots.  Requires the run to carry a chunk log (see
    :func:`repro.obs.timeline.require_chunk_log`).
    """
    require_chunk_log(result, action="render a Gantt chart")
    makespan = result.makespan
    if makespan <= 0:
        return "(empty schedule)"
    glyphs = "#=@%+*"
    rows = []
    by_worker: dict[int, list[ChunkExecution]] = {}
    for ce in result.chunk_log:
        by_worker.setdefault(ce.record.worker, []).append(ce)
    shown = sorted(by_worker)[:max_workers]
    for worker in range(result.p):
        if worker not in by_worker:
            if worker < max_workers:
                rows.append(f"w{worker:<3}|" + "." * width + "|")
            continue
        if worker not in shown:
            continue
        line = ["."] * width
        for i, ce in enumerate(by_worker[worker]):
            a = int(ce.start_time / makespan * width)
            b = int(ce.end_time / makespan * width)
            b = max(b, a + 1)
            glyph = glyphs[i % len(glyphs)]
            for pos in range(a, min(b, width)):
                line[pos] = glyph
        rows.append(f"w{worker:<3}|" + "".join(line) + "|")
    if result.p > max_workers:
        rows.append(f"... ({result.p - max_workers} more workers)")
    header = (
        f"{result.technique}: n={result.n}, p={result.p}, "
        f"makespan={makespan:.3f}s, {result.num_chunks} chunks"
    )
    scale = f"    0{'':{width - 10}}{makespan:>9.2f}s"
    return "\n".join([header, *rows, scale])


def utilization_summary(result: RunResult) -> str:
    """One line per worker: busy fraction and chunk count."""
    lines = [f"{'worker':>7} {'busy%':>7} {'chunks':>7} {'compute[s]':>11}"]
    for w in range(result.p):
        busy = (
            result.compute_times[w] / result.makespan * 100
            if result.makespan > 0
            else 0.0
        )
        lines.append(
            f"{w:>7} {busy:>6.1f}% {result.chunks_per_worker[w]:>7} "
            f"{result.compute_times[w]:>11.3f}"
        )
    return "\n".join(lines)
