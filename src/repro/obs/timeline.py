"""Chunk-level execution timelines and their exporters.

The follow-up literature to the reproduced paper diagnoses scheduling
discrepancies by inspecting *per-chunk execution timelines* (Mohammed,
Eleliemy & Ciorba, arXiv:1805.07998), not per-run scalars.  This module
turns the chunk logs every backend can record (``RunResult.chunk_log``)
into one unified :class:`TraceEvent` model, and serialises timelines to
two formats:

* **Chrome Trace Event Format** (:func:`chrome_trace`,
  :func:`chrome_trace_from_results`, :func:`chrome_trace_from_journal`)
  — JSON loadable by Perfetto (https://ui.perfetto.dev) and
  ``chrome://tracing``.  Each ``(technique, n, p)`` run is one process
  group; each worker is one named track inside it.
* **Paje** (:func:`paje_trace` / :func:`save_paje_trace`) — SimGrid's
  trace format, loadable by Paje/Vite (``repro-dls gantt --paje``).
  :func:`worker_timelines` gives the same chunk log as per-worker
  execution windows.

Journals written by ``--trace`` convert to campaign-level Chrome traces
(one track-packed process per backend, instant events for fallbacks,
counter tracks for progress heartbeats) via ``repro-dls trace-export``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

if TYPE_CHECKING:
    from ..results import RunResult

__all__ = [
    "TraceEvent",
    "chrome_trace",
    "chrome_trace_from_journal",
    "chrome_trace_from_results",
    "paje_trace",
    "require_chunk_log",
    "save_chrome_trace",
    "save_paje_trace",
    "timeline_from_result",
    "worker_timelines",
]


def require_chunk_log(result: "RunResult", action: str = "build a timeline"):
    """Fail clearly when ``result`` carries no chunk log.

    Names every way to populate the log, so the error is actionable
    instead of an empty chart: the simulators' ``record_chunks=True``
    flag and the registry-level ``RunTask(collect_chunk_log=True)``
    option (supported by the ``msg``, ``msg-fast`` and ``direct``
    backends; ``direct-batch`` falls back to ``direct``).
    """
    if not result.chunk_log:
        raise ValueError(
            f"cannot {action}: the run has no chunk log; simulate with "
            "record_chunks=True (DirectSimulator / MasterWorkerSimulation) "
            "or RunTask(collect_chunk_log=True) — the msg, msg-fast and "
            "direct backends record chunk logs; direct-batch falls back "
            "to direct when a log is requested"
        )


@dataclass(frozen=True)
class TraceEvent:
    """One timed interval on a timeline.

    ``group`` is the process-level grouping (one per run, or per
    backend for campaign traces); ``track`` is the thread-level lane
    inside it (one per worker).  ``duration == 0`` marks an instant
    event (rendered as a vertical marker, not a slice).
    """

    name: str
    start: float
    duration: float
    group: str
    track: int = 0
    track_name: str = ""
    category: str = "chunk"
    args: Mapping = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.duration


def timeline_from_result(
    result: "RunResult", group: str | None = None
) -> list[TraceEvent]:
    """The per-worker chunk timeline of one recorded run.

    One :class:`TraceEvent` per executed chunk, on the track of the
    worker that ran it.  Requires a chunk log (see
    :func:`require_chunk_log`).  Runs simulated under a perturbation
    scenario additionally carry one instant event per declared
    perturbation (step slowdowns, fail-stop instants) on the affected
    worker's track, from ``extras["perturbations"]``.
    """
    require_chunk_log(result)
    if group is None:
        group = f"{result.technique} n={result.n} p={result.p}"
    events = [
        TraceEvent(
            name=f"chunk {ce.record.index} ({ce.record.size} tasks)",
            start=ce.start_time,
            duration=ce.elapsed,
            group=group,
            track=ce.record.worker,
            track_name=f"worker-{ce.record.worker}",
            category="chunk",
            args={
                "index": ce.record.index,
                "size": ce.record.size,
                "first_task": ce.record.start,
            },
        )
        for ce in result.chunk_log
    ]
    scenario = result.extras.get("scenario")
    for label, time, worker in result.extras.get("perturbations", ()):
        events.append(
            TraceEvent(
                name=label,
                start=float(time),
                duration=0.0,
                group=group,
                track=int(worker),
                track_name=f"worker-{worker}",
                category="perturbation",
                args={"scenario": scenario, "worker": int(worker)},
            )
        )
    return events


# -- Chrome Trace Event Format --------------------------------------------
def chrome_trace(events: Iterable[TraceEvent]) -> dict:
    """Serialise events to the Chrome Trace Event Format (JSON object).

    Groups become numbered processes carrying ``process_name`` metadata;
    tracks become named threads.  Zero-duration events serialise as
    instant (``"ph": "i"``) events, everything else as complete
    (``"ph": "X"``) events with microsecond timestamps.
    """
    pids: dict[str, int] = {}
    threads: dict[tuple[int, int], str] = {}
    trace_events: list[dict] = []
    body: list[dict] = []
    for event in events:
        pid = pids.get(event.group)
        if pid is None:
            pid = pids[event.group] = len(pids) + 1
            trace_events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": event.group},
                }
            )
        key = (pid, event.track)
        if key not in threads:
            threads[key] = event.track_name or f"track-{event.track}"
            trace_events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": event.track,
                    "args": {"name": threads[key]},
                }
            )
        record = {
            "name": event.name,
            "cat": event.category,
            "ts": round(event.start * 1e6, 3),
            "pid": pid,
            "tid": event.track,
            "args": dict(event.args),
        }
        if event.duration > 0:
            record["ph"] = "X"
            record["dur"] = round(event.duration * 1e6, 3)
        else:
            record["ph"] = "i"
            record["s"] = "g"
        body.append(record)
    trace_events.extend(body)
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def chrome_trace_from_results(
    results: Sequence["RunResult"],
    groups: Sequence[str] | None = None,
) -> dict:
    """One Chrome trace for several recorded runs.

    Each run is its own process group (auto-labelled
    ``technique n=.. p=..``, de-duplicated by index when runs repeat a
    cell); workers are tracks within it.
    """
    if groups is not None and len(groups) != len(results):
        raise ValueError(
            f"need {len(results)} group labels, got {len(groups)}"
        )
    events: list[TraceEvent] = []
    seen: dict[str, int] = {}
    for i, result in enumerate(results):
        if groups is not None:
            label = groups[i]
        else:
            label = f"{result.technique} n={result.n} p={result.p}"
            count = seen.get(label, 0)
            seen[label] = count + 1
            if count:
                label = f"{label} #{count + 1}"
        events.extend(timeline_from_result(result, group=label))
    return chrome_trace(events)


def _pack_track(lanes: list[float], start: float, end: float) -> int:
    """Greedy interval packing: the first lane free at ``start``."""
    for lane, free_at in enumerate(lanes):
        if start >= free_at:
            lanes[lane] = end
            return lane
    lanes.append(end)
    return len(lanes) - 1


def chrome_trace_from_journal(records: Sequence[dict]) -> dict:
    """A campaign-level Chrome trace from a ``--trace`` run journal.

    Task records become slices grouped per backend (overlapping tasks
    pack into parallel lanes); fallback records become instant events;
    progress heartbeats become Perfetto counter tracks (tasks done,
    events/second).  Journal records carry ``t_s`` — seconds since the
    journal opened — which anchors every event; journals written before
    ``t_s`` existed lay tasks end-to-end per backend instead.
    """
    events: list[TraceEvent] = []
    lanes: dict[str, list[float]] = {}
    cursor: dict[str, float] = {}
    for record in records:
        kind = record.get("kind")
        if kind == "task":
            backend = record.get("backend", "?")
            group = f"backend: {backend}"
            wall = float(record.get("wall_time_s", 0.0)) or 1e-6
            t_s = record.get("t_s")
            if t_s is not None:
                start = max(0.0, float(t_s) - wall)
            else:
                start = cursor.get(backend, 0.0)
                cursor[backend] = start + wall
            track = _pack_track(
                lanes.setdefault(backend, []), start, start + wall
            )
            label = (
                f"{record.get('technique', '?')}"
                f"(n={record.get('n', '?')}, p={record.get('p', '?')})"
            )
            events.append(
                TraceEvent(
                    name=label,
                    start=start,
                    duration=wall,
                    group=group,
                    track=track,
                    track_name=f"lane-{track}",
                    category="task",
                    args={
                        "runs": record.get("runs"),
                        "events": record.get("events"),
                        "requested": record.get("requested"),
                        "backend": backend,
                    },
                )
            )
        elif kind == "fallback":
            events.append(
                TraceEvent(
                    name=(
                        f"fallback {record.get('requested', '?')} -> "
                        f"{record.get('chosen', '?')}"
                    ),
                    start=float(record.get("t_s", 0.0)),
                    duration=0.0,
                    group="campaign",
                    track=0,
                    track_name="fallbacks",
                    category="fallback",
                    args={
                        "task": record.get("task"),
                        "reason": record.get("reason"),
                    },
                )
            )
    trace = chrome_trace(events)
    # Progress heartbeats render best as counter tracks, which have no
    # interval representation in the TraceEvent model — append directly.
    counter_pid = 0
    for record in records:
        if record.get("kind") != "progress":
            continue
        if not counter_pid:
            counter_pid = (
                max(
                    (e["pid"] for e in trace["traceEvents"]), default=0
                )
                + 1
            )
            trace["traceEvents"].append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": counter_pid,
                    "tid": 0,
                    "args": {"name": "campaign progress"},
                }
            )
        ts = round(float(record.get("t_s", record.get("elapsed_s", 0.0))) * 1e6, 3)
        trace["traceEvents"].append(
            {
                "name": "tasks done",
                "ph": "C",
                "ts": ts,
                "pid": counter_pid,
                "tid": 0,
                "args": {"done": record.get("done", 0)},
            }
        )
        trace["traceEvents"].append(
            {
                "name": "events/s",
                "ph": "C",
                "ts": ts,
                "pid": counter_pid,
                "tid": 0,
                "args": {"events_per_s": record.get("events_per_s", 0.0)},
            }
        )
    return trace


def save_chrome_trace(trace: dict, path: str | Path) -> None:
    """Write a Chrome trace object as JSON to ``path``."""
    Path(path).write_text(json.dumps(trace) + "\n")


# -- Paje export ------------------------------------------------------------

_PAJE_HEADER = """\
%EventDef PajeDefineContainerType 0
%       Alias string
%       Type string
%       Name string
%EndEventDef
%EventDef PajeDefineStateType 1
%       Alias string
%       Type string
%       Name string
%EndEventDef
%EventDef PajeCreateContainer 2
%       Time date
%       Alias string
%       Type string
%       Container string
%       Name string
%EndEventDef
%EventDef PajeSetState 3
%       Time date
%       Type string
%       Container string
%       Value string
%EndEventDef
%EventDef PajeDestroyContainer 4
%       Time date
%       Type string
%       Name string
%EndEventDef
"""


def paje_trace(result: "RunResult") -> str:
    """Serialise a recorded run to a Paje trace (SimGrid's format).

    Containers: one per worker.  States: ``compute`` during chunk
    execution, ``idle`` otherwise.  Loadable by Paje/Vite-compatible
    tools.
    """
    require_chunk_log(result, action="export a Paje trace")
    out = [_PAJE_HEADER]
    out.append('0 CT_Platform 0 "Platform"')
    out.append('0 CT_Worker CT_Platform "Worker"')
    out.append('1 ST_WorkerState CT_Worker "Worker State"')
    out.append('2 0.000000 C_platform CT_Platform 0 "platform"')
    for w in range(result.p):
        out.append(
            f'2 0.000000 C_w{w} CT_Worker C_platform "worker-{w}"'
        )
        out.append(f'3 0.000000 ST_WorkerState C_w{w} "idle"')
    events: list[tuple[float, int, str]] = []
    for ce in sorted(result.chunk_log, key=lambda c: c.start_time):
        w = ce.record.worker
        events.append((ce.start_time, 1, f'ST_WorkerState C_w{w} "compute"'))
        events.append((ce.end_time, 0, f'ST_WorkerState C_w{w} "idle"'))
    events.sort(key=lambda e: (e[0], e[1]))
    for time, _, body in events:
        out.append(f"3 {time:.6f} {body}")
    for w in range(result.p):
        out.append(f"4 {result.makespan:.6f} CT_Worker C_w{w}")
    out.append(f"4 {result.makespan:.6f} CT_Platform C_platform")
    return "\n".join(out) + "\n"


def save_paje_trace(result: "RunResult", path: str | Path) -> None:
    """Write :func:`paje_trace` output to ``path``."""
    Path(path).write_text(paje_trace(result))


def worker_timelines(
    result: "RunResult",
) -> dict[int, list[tuple[float, float]]]:
    """Per-worker (start, end) execution windows from the chunk log."""
    require_chunk_log(result, action="extract worker timelines")
    out: dict[int, list[tuple[float, float]]] = {
        w: [] for w in range(result.p)
    }
    for ce in result.chunk_log:
        out[ce.record.worker].append((ce.start_time, ce.end_time))
    for windows in out.values():
        windows.sort()
    return out
