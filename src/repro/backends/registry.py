"""Name-based registry of simulation backends plus capability dispatch.

Backends register themselves at import time via :func:`register_backend`
(the built-in four live in :mod:`repro.backends.builtin`).  The registry
powers ``RunTask`` dispatch, the CLI ``--simulator`` choices, the
``repro-dls backends`` listing, and the generated capability matrix in
``docs/simulators.md``.

Dispatch is *capability-checked*: :func:`resolve_backend` asks the
requested backend whether it can serve the task and walks the declared
fallback chain when it cannot, recording a :class:`FallbackEvent` per
degradation.  The figures pipeline (around each artifact) and the CLI
drain the event log (:func:`drain_fallback_events`) and surface the
degradations — nothing falls back silently.  :func:`walk_fallbacks` is the
same walk without the recording: it returns the hops of one task, which
is what a cache entry or an advisor answer attributes to that task.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Type

from .base import (
    CAPABILITY_DESCRIPTIONS,
    BackendResolutionError,
    FallbackEvent,
    SimulationBackend,
    capability_names,
)

if TYPE_CHECKING:
    from ..experiments.runner import RunTask

_REGISTRY: dict[str, SimulationBackend] = {}


def register_backend(
    cls: Type[SimulationBackend],
) -> Type[SimulationBackend]:
    """Class decorator adding a backend (as a singleton) to the registry."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} must define a non-empty 'name'")
    key = cls.name.lower()
    if key in _REGISTRY and type(_REGISTRY[key]) is not cls:
        raise ValueError(f"duplicate backend name {key!r}")
    _REGISTRY[key] = cls()
    return cls


def backend_names() -> list[str]:
    """All registered backend names, sorted."""
    _ensure_loaded()
    return sorted(_REGISTRY)


def get_backend(name: str) -> SimulationBackend:
    """Look up a backend by (case-insensitive) name."""
    _ensure_loaded()
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown simulation backend {name!r}; registered: {known}"
        ) from None


def iter_backends() -> Iterator[SimulationBackend]:
    """Iterate over registered backends in name order."""
    _ensure_loaded()
    for key in sorted(_REGISTRY):
        yield _REGISTRY[key]


# -- fallback event log ---------------------------------------------------
# Deduplicated insertion-ordered log of capability degradations.  The
# same (task cell, hop) resolves once per replication on the serial path,
# so the log dedupes on the event itself; the figures pipeline drains it
# around each artifact and the CLI around a command's runs.  Worker
# processes keep their own (discarded) logs — the campaign layer resolves
# every task in the parent process before pooling, so nothing is lost.
_FALLBACK_LOG: dict[FallbackEvent, None] = {}


def record_fallback(event: FallbackEvent) -> None:
    """Append ``event`` to the process-wide fallback log (deduplicated)."""
    _FALLBACK_LOG[event] = None


def peek_fallback_events() -> list[FallbackEvent]:
    """The fallback events recorded since the last drain, oldest first."""
    return list(_FALLBACK_LOG)


def drain_fallback_events() -> list[FallbackEvent]:
    """Return and clear the recorded fallback events."""
    events = list(_FALLBACK_LOG)
    _FALLBACK_LOG.clear()
    return events


def walk_fallbacks(
    task: "RunTask",
) -> tuple[SimulationBackend, tuple[FallbackEvent, ...]]:
    """The backend that will execute ``task`` and the hops on the way.

    Starts at ``task.simulator`` and follows declared fallbacks until a
    backend accepts the task, returning one :class:`FallbackEvent` per
    degradation.  Pure: nothing is recorded, so the events belong to
    ``task`` alone, whatever other cells share its ``task_key``.
    Raises :class:`BackendResolutionError` when the chain is exhausted,
    and :class:`KeyError` for an unregistered name.
    """
    backend = get_backend(task.simulator)
    key = backend.task_key(task)
    visited: list[str] = []
    events: list[FallbackEvent] = []
    while True:
        visited.append(backend.name)
        reason = backend.unsupported_reason(task)
        if reason is None:
            return backend, tuple(events)
        if backend.fallback is None:
            raise BackendResolutionError(
                f"no backend can serve {key}: tried "
                f"{' -> '.join(visited)}; {backend.name!r} rejected it "
                f"({reason}) and declares no fallback"
            )
        chosen = get_backend(backend.fallback)
        if chosen.name in visited:  # pragma: no cover - registration bug
            raise BackendResolutionError(
                f"fallback cycle while resolving {key}: "
                f"{' -> '.join(visited + [chosen.name])}"
            )
        events.append(
            FallbackEvent(
                task_key=key,
                requested=backend.name,
                chosen=chosen.name,
                reason=reason,
            )
        )
        backend = chosen


def resolve_backend(task: "RunTask") -> SimulationBackend:
    """The backend that will actually execute ``task``.

    Walks the fallback chain (:func:`walk_fallbacks`) and records each
    degradation in the process-wide log.
    """
    backend, events = walk_fallbacks(task)
    for event in events:
        record_fallback(event)
    return backend


# -- generated documentation ----------------------------------------------
def capability_matrix() -> list[tuple[str, dict[str, bool]]]:
    """(backend name, capability flag -> supported) for every backend."""
    return [
        (
            backend.name,
            {
                name: getattr(backend.capabilities, name)
                for name in capability_names()
            },
        )
        for backend in iter_backends()
    ]


def capability_matrix_markdown() -> str:
    """The capability matrix as a GitHub-flavoured markdown table.

    ``docs/simulators.md`` embeds this table verbatim (between the
    ``capability-matrix`` markers); ``tests/test_backends.py`` asserts
    the embedded copy matches this output, so the docs cannot drift
    from the registry.
    """
    backends = list(iter_backends())
    header = "| capability | " + " | ".join(b.name for b in backends) + " |"
    rule = "|---|" + "---|" * len(backends)
    lines = [header, rule]
    for flag in capability_names():
        cells = " | ".join(
            "yes" if getattr(b.capabilities, flag) else "—" for b in backends
        )
        lines.append(f"| {CAPABILITY_DESCRIPTIONS[flag]} | {cells} |")
    fallbacks = " | ".join(b.fallback or "—" for b in backends)
    lines.append(f"| *declared fallback* | {fallbacks} |")
    return "\n".join(lines)


def _ensure_loaded() -> None:
    """Import the built-in backends so their decorators run."""
    from . import builtin  # noqa: F401  (import for side effects)
