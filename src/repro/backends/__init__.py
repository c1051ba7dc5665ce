"""Unified simulation-backend registry with capability-driven dispatch.

The four execution substrates (``msg``, ``msg-fast``, ``direct``,
``direct-batch``) register themselves as :class:`SimulationBackend`
objects declaring their capabilities; :func:`resolve_backend` picks the
backend that will actually execute a task, degrading explicitly along
declared fallback chains and recording every degradation as a
:class:`FallbackEvent` (drained by the figures pipeline and the CLI —
see :func:`drain_fallback_events`).  Adding a backend is a registration
(:func:`register_backend`), not a runner rewrite.
"""

from .base import (
    BATCH_BLOCK_RUNS,
    CAPABILITY_DESCRIPTIONS,
    BackendCapabilities,
    BackendResolutionError,
    FallbackEvent,
    ReplicationBlock,
    SimulationBackend,
    capability_names,
)
from .registry import (
    backend_names,
    capability_matrix,
    capability_matrix_markdown,
    drain_fallback_events,
    get_backend,
    iter_backends,
    peek_fallback_events,
    record_fallback,
    register_backend,
    resolve_backend,
    walk_fallbacks,
)

__all__ = [
    "BATCH_BLOCK_RUNS",
    "CAPABILITY_DESCRIPTIONS",
    "BackendCapabilities",
    "BackendResolutionError",
    "FallbackEvent",
    "ReplicationBlock",
    "SimulationBackend",
    "backend_names",
    "capability_matrix",
    "capability_matrix_markdown",
    "capability_names",
    "drain_fallback_events",
    "get_backend",
    "iter_backends",
    "peek_fallback_events",
    "record_fallback",
    "register_backend",
    "resolve_backend",
    "walk_fallbacks",
]
