"""Structured observability: run stats, run journals, metrics, timelines.

The paper's whole argument rests on being able to *trust* what a
simulation run did — Section V publishes its raw data precisely so
others can audit it.  This package gives every execution path the
instrumentation that makes a run auditable:

* :class:`RunStats` (:mod:`repro.obs.stats`) — the per-run kernel
  statistics block every simulator attaches to its
  :class:`~repro.results.RunResult` (the backend that ran it, whether
  a fast path did, events processed, host wall time).  Stats are
  observability metadata, not results: ``RunResult`` equality ignores
  them.  They ride back from pool workers with the results.
* :class:`RunJournal` (:mod:`repro.obs.journal`) — an append-only JSONL
  journal of campaign execution, one record per task (backend chosen,
  fallback events, seed entropy, wall time, stats), written by
  :mod:`repro.experiments.runner` inside :func:`journal_to`.
* :func:`capture_provenance` (:mod:`repro.obs.provenance`) — the
  environment snapshot (package version, python, platform XML hash,
  ``REPRO_WORKERS``) recorded in every artifact manifest and cache
  entry and written as the first journal record.
* :func:`summarize_journal` (:mod:`repro.obs.report`) — the
  ``repro-dls stats`` summary (slowest tasks, fallback counts,
  events/sec per backend, wall-time histogram).
* :class:`TraceEvent` (:mod:`repro.obs.timeline`) — chunk-level
  execution timelines built from ``RunResult.chunk_log``, exported to
  the Chrome Trace Event Format (Perfetto) and to Paje
  (``repro-dls trace-export``, ``repro-dls gantt --paje``).
* :class:`MetricsRegistry` (:mod:`repro.obs.metrics`) — campaign-level
  histograms/gauges/counters (chunk sizes, worker idle time, events/s),
  exported as JSON or Prometheus text via ``--metrics FILE``.
* :class:`ProgressEvent` (:mod:`repro.obs.progress`) — periodic
  heartbeats from the campaign runner through a callback (CLI
  ``--progress``) and into the journal as ``progress`` records.

Each sink — the result cache (:func:`repro.cache.cache_to`), the
journal (:func:`journal_to`), the metrics registry (:func:`metrics_to`)
and the progress callback (:func:`progress_to`) — is turned on by one
scope, which restores the sink active before it on exit.
"""

from .._exports import lazy_exports

_EXPORTS = {
    "journal": ("RunJournal", "active_journal", "journal_to"),
    "metrics": (
        "Histogram",
        "MetricsRegistry",
        "active_registry",
        "clear_registry",
        "metrics_to",
        "set_registry",
    ),
    "progress": (
        "ProgressEvent",
        "ProgressTracker",
        "progress_to",
        "stream_renderer",
    ),
    "provenance": ("capture_provenance", "platform_xml_hash"),
    "report": ("load_journal", "summarize_journal"),
    "stats": ("RunStats",),
    "timeline": (
        "TraceEvent",
        "chrome_trace",
        "chrome_trace_from_journal",
        "chrome_trace_from_results",
        "save_chrome_trace",
        "timeline_from_result",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
