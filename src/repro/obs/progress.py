"""Live campaign progress: periodic heartbeats through a callback.

Million-task campaigns run for hours; this module lets the campaign
runner report how far along it is without coupling it to any rendering.
A heartbeat is a :class:`ProgressEvent` — tasks done/total, elapsed
time, cumulative kernel events and their rate, an ETA extrapolated from
the observed rate, and the number of capability fallbacks so far.

Heartbeats flow to two sinks, both optional:

* the callback installed by :func:`progress_to`, rendered by the CLI
  ``--progress`` flag via :func:`stream_renderer`;
* the active run journal, as ``{"kind": "progress", ...}`` records.

When neither sink is active the runner skips tracking entirely (one
``None`` check per campaign call), so disabled progress is free.
Heartbeats are throttled to one per :data:`MIN_INTERVAL` seconds; the
final completion event is always emitted.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, TextIO

if TYPE_CHECKING:
    from .journal import RunJournal

__all__ = [
    "ProgressEvent",
    "ProgressTracker",
    "campaign_tracker",
    "progress_to",
    "stream_renderer",
]

#: seconds between heartbeats (the final one is never throttled)
MIN_INTERVAL = 0.5


@dataclass(frozen=True)
class ProgressEvent:
    """One heartbeat of a running campaign."""

    label: str
    done: int
    total: int
    elapsed_s: float
    events: int
    events_per_second: float
    eta_s: float | None
    fallbacks: int

    @property
    def fraction(self) -> float:
        return self.done / self.total if self.total else 1.0

    def to_json(self) -> dict:
        return {
            "kind": "progress",
            "label": self.label,
            "done": self.done,
            "total": self.total,
            "elapsed_s": round(self.elapsed_s, 6),
            "events": self.events,
            "events_per_s": round(self.events_per_second, 1),
            "eta_s": (
                round(self.eta_s, 3) if self.eta_s is not None else None
            ),
            "fallbacks": self.fallbacks,
        }

    def describe(self) -> str:
        eta = f"{self.eta_s:.1f}s" if self.eta_s is not None else "?"
        line = (
            f"{self.label}: {self.done}/{self.total} "
            f"({self.fraction * 100:.0f}%) | "
            f"{self.events_per_second:,.0f} ev/s | ETA {eta}"
        )
        if self.fallbacks:
            line += f" | {self.fallbacks} fallback(s)"
        return line


ProgressCallback = Callable[[ProgressEvent], None]

_CALLBACK: ProgressCallback | None = None


@contextmanager
def progress_to(callback: ProgressCallback) -> Iterator[None]:
    """Route heartbeats inside the block to ``callback``.

    On exit the callback active before the block, if any, is active
    again (journal heartbeats are unaffected).
    """
    global _CALLBACK
    outer, _CALLBACK = _CALLBACK, callback
    try:
        yield
    finally:
        _CALLBACK = outer


class ProgressTracker:
    """Counts completed work and emits throttled heartbeats.

    The runner calls :meth:`advance` once per completed task (or pooled
    replication block) and :meth:`finish` at the end; heartbeats go to
    the callback and, when a journal is active, to the journal as
    ``progress`` records.  The ETA extrapolates the mean observed rate:
    ``elapsed / done * remaining``.
    """

    def __init__(
        self,
        total: int,
        label: str = "campaign",
        callback: ProgressCallback | None = None,
        journal: "RunJournal | None" = None,
        fallback_baseline: int = 0,
    ):
        self.total = total
        self.label = label
        self.callback = callback
        self.journal = journal
        self.fallback_baseline = fallback_baseline
        self.done = 0
        self.events = 0
        self._t0 = time.monotonic()
        self._last_emit = self._t0

    def advance(self, count: int = 1, events: int = 0) -> None:
        """Record ``count`` completed units and emit if due."""
        self.done += count
        self.events += events
        now = time.monotonic()
        if now - self._last_emit >= MIN_INTERVAL:
            self._emit(now)

    def finish(self) -> None:
        """Emit the final (unthrottled) completion heartbeat."""
        self._emit(time.monotonic())

    def _new_fallbacks(self) -> int:
        from ..backends import peek_fallback_events

        return max(0, len(peek_fallback_events()) - self.fallback_baseline)

    def _emit(self, now: float) -> None:
        self._last_emit = now
        elapsed = now - self._t0
        remaining = self.total - self.done
        eta = None
        if self.done > 0 and remaining >= 0:
            eta = elapsed / self.done * remaining
        event = ProgressEvent(
            label=self.label,
            done=self.done,
            total=self.total,
            elapsed_s=elapsed,
            events=self.events,
            events_per_second=self.events / elapsed if elapsed > 0 else 0.0,
            eta_s=eta,
            fallbacks=self._new_fallbacks(),
        )
        if self.callback is not None:
            self.callback(event)
        if self.journal is not None:
            self.journal.write(event.to_json())


def campaign_tracker(
    total: int,
    label: str,
    journal: "RunJournal | None" = None,
    fallback_baseline: int = 0,
) -> ProgressTracker | None:
    """A tracker wired to the active sinks — or None when both are off.

    Returning None lets the runner skip all per-task bookkeeping when
    nobody is listening, keeping disabled progress free.
    """
    if _CALLBACK is None and journal is None:
        return None
    return ProgressTracker(
        total=total,
        label=label,
        callback=_CALLBACK,
        journal=journal,
        fallback_baseline=fallback_baseline,
    )


def stream_renderer(stream: TextIO | None = None) -> ProgressCallback:
    """A callback rendering heartbeats to a terminal (CLI ``--progress``).

    On a TTY the line rewrites in place (carriage return); on anything
    else — CI logs, redirected stderr — each heartbeat is its own line.
    """

    def render(event: ProgressEvent) -> None:
        out = stream if stream is not None else sys.stderr
        text = f"  {event.describe()}"
        if out.isatty():
            out.write("\r" + text.ljust(78))
            if event.done >= event.total:
                out.write("\n")
        else:
            out.write(text + "\n")
        out.flush()

    return render
