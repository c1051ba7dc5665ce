"""Structured observability: spans, counters, run stats, run journals.

The paper's whole argument rests on being able to *trust* what a
simulation run did — Section V publishes its raw data precisely so
others can audit it.  This package gives every execution path the
instrumentation that makes a run auditable:

* :class:`Span` / :class:`Counters` (:mod:`repro.obs.core`) —
  lightweight tracing with near-zero overhead while disabled; a
  disabled :func:`span` call returns a shared no-op singleton.
* :class:`RunStats` (:mod:`repro.obs.stats`) — the per-run kernel
  statistics block every simulator attaches to its
  :class:`~repro.results.RunResult` (events processed, heap peak,
  live-process high-water mark, host wall time).  Stats are
  observability metadata, not results: ``RunResult`` equality ignores
  them.
* :class:`RunJournal` (:mod:`repro.obs.journal`) — an append-only JSONL
  journal of campaign execution, one record per task (backend chosen,
  fallback events, seed entropy, wall time, stats), written by
  :mod:`repro.experiments.runner` whenever a journal is active.
* :func:`capture_provenance` (:mod:`repro.obs.provenance`) — the
  environment snapshot (package version, python, platform XML hash,
  ``REPRO_WORKERS``) recorded in every artifact manifest and cache
  entry and written as the first journal record.
* :func:`summarize_journal` (:mod:`repro.obs.report`) — the
  ``repro-dls stats`` summary (slowest tasks, fallback counts,
  events/sec per backend, wall-time histogram).
* :class:`TraceEvent` (:mod:`repro.obs.timeline`) — chunk-level
  execution timelines built from ``RunResult.chunk_log`` and drained
  spans, exported to the Chrome Trace Event Format (Perfetto) and to
  Paje (``repro-dls trace-export``).
* :class:`MetricsRegistry` (:mod:`repro.obs.metrics`) — campaign-level
  histograms/gauges/counters (chunk sizes, worker idle time, events/s),
  exported as JSON or Prometheus text via ``--metrics FILE``.
* :class:`ProgressEvent` (:mod:`repro.obs.progress`) — periodic
  heartbeats from the campaign runner through a pluggable callback
  (CLI ``--progress``) and into the journal as ``progress`` records.
"""

from .core import (
    Counters,
    Span,
    counters,
    disable,
    drain_spans,
    enable,
    is_enabled,
    span,
)
from .journal import (
    RunJournal,
    active_journal,
    clear_journal,
    journal_to,
    set_journal,
)
from .metrics import (
    Histogram,
    MetricsRegistry,
    active_registry,
    clear_registry,
    metrics_to,
    set_registry,
)
from .progress import (
    ProgressEvent,
    ProgressTracker,
    clear_progress,
    progress_to,
    set_progress,
    stream_renderer,
)
from .provenance import capture_provenance, platform_xml_hash
from .report import load_journal, summarize_journal
from .stats import RunStats
from .timeline import (
    TraceEvent,
    chrome_trace,
    chrome_trace_from_journal,
    chrome_trace_from_results,
    save_chrome_trace,
    span_events,
    timeline_from_result,
)

__all__ = [
    "Counters",
    "Histogram",
    "MetricsRegistry",
    "ProgressEvent",
    "ProgressTracker",
    "RunJournal",
    "RunStats",
    "Span",
    "TraceEvent",
    "active_journal",
    "active_registry",
    "capture_provenance",
    "chrome_trace",
    "chrome_trace_from_journal",
    "chrome_trace_from_results",
    "clear_journal",
    "clear_progress",
    "clear_registry",
    "counters",
    "disable",
    "drain_spans",
    "enable",
    "is_enabled",
    "journal_to",
    "load_journal",
    "metrics_to",
    "platform_xml_hash",
    "progress_to",
    "save_chrome_trace",
    "set_journal",
    "set_progress",
    "set_registry",
    "span",
    "span_events",
    "stream_renderer",
    "summarize_journal",
    "timeline_from_result",
]
