"""Name-based registry of DLS techniques.

Techniques register themselves at import time via :func:`register`.  The
registry powers the CLI, the experiment runners, and the Table II
generator.
"""

from __future__ import annotations

from typing import Callable, Iterator, Type

from .base import Scheduler
from .params import SchedulingParams

_REGISTRY: dict[str, Type[Scheduler]] = {}


def register(cls: Type[Scheduler]) -> Type[Scheduler]:
    """Class decorator adding a technique to the registry."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} must define a non-empty 'name'")
    key = cls.name.lower()
    if key in _REGISTRY and _REGISTRY[key] is not cls:
        raise ValueError(f"duplicate technique name {key!r}")
    _REGISTRY[key] = cls
    return cls


def technique_names() -> list[str]:
    """All registered technique names, sorted."""
    _ensure_loaded()
    return sorted(_REGISTRY)


def get_technique(name: str) -> Type[Scheduler]:
    """Look up a technique class by (case-insensitive) name."""
    _ensure_loaded()
    key = name.lower()
    try:
        return _REGISTRY[key]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown DLS technique {name!r}; known: {known}") from None


def create(name: str, params: SchedulingParams, **kwargs) -> Scheduler:
    """Instantiate a technique by name."""
    return get_technique(name)(params, **kwargs)


def iter_techniques() -> Iterator[Type[Scheduler]]:
    """Iterate over registered technique classes in name order."""
    _ensure_loaded()
    for key in sorted(_REGISTRY):
        yield _REGISTRY[key]


def make_factory(name: str, **kwargs) -> Callable[[SchedulingParams], Scheduler]:
    """Return a ``params -> Scheduler`` factory, useful for experiment specs."""
    cls = get_technique(name)
    return lambda params: cls(params, **kwargs)


def _ensure_loaded() -> None:
    """Import the technique modules so their @register decorators run."""
    from . import techniques  # noqa: F401  (import for side effects)
