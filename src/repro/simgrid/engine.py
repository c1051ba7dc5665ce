"""Discrete-event simulation kernel.

A minimal but complete process-oriented DES core in the style SimGrid's
surf/simix layers provide to MSG: a global simulated clock, an event heap,
and *processes* written as Python generators that yield effects
(:class:`Timeout`, :class:`Receive`, ...).  The kernel knows nothing about
hosts or networks — those live in :mod:`repro.simgrid.platform` and
:mod:`repro.simgrid.msg`.

Determinism: events at equal times fire in schedule order (a monotonic
sequence number breaks ties), so simulations are exactly reproducible.

The event heap stores flat ``(time, seq, callback, args)`` tuples — the
callback is whatever callable the scheduler passed in (typically a bound
``Process.resume``), never a wrapper lambda, so scheduling an event
allocates no closure.  Dead processes are dropped from the engine's
bookkeeping as they finish; only live processes are retained (for the
deadlock report), so long simulations do not accumulate garbage.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Optional


class SimulationError(RuntimeError):
    """Raised for structural simulation errors (deadlock, bad effect)."""


class Effect:
    """Base class for values a process may yield to the kernel."""

    __slots__ = ()

    def apply(self, engine: "Engine", process: "Process") -> None:
        raise NotImplementedError


class Timeout(Effect):
    """Suspend the process for ``duration`` simulated seconds."""

    __slots__ = ("duration",)

    def __init__(self, duration: float):
        if duration < 0:
            raise ValueError(f"timeout duration must be >= 0, got {duration}")
        self.duration = duration

    def apply(self, engine: "Engine", process: "Process") -> None:
        engine.schedule(self.duration, process.resume, None)


class Process:
    """A simulated process driving a generator of effects.

    The generator may ``yield`` any :class:`Effect`; the value sent back
    into the generator is effect-specific (e.g. the received message for a
    receive effect).  When the generator returns, the process is dead.
    """

    __slots__ = ("engine", "gen", "name", "alive")

    def __init__(self, engine: "Engine", gen: Generator[Effect, Any, None],
                 name: str = "process"):
        self.engine = engine
        self.gen = gen
        self.name = name
        self.alive = True

    def resume(self, value: Any = None) -> None:
        """Advance the generator with ``value`` until its next effect."""
        if not self.alive:
            return
        try:
            effect = self.gen.send(value)
        except StopIteration:
            self.alive = False
            self.engine._process_finished(self)
            return
        if not isinstance(effect, Effect):
            raise SimulationError(
                f"process {self.name!r} yielded {effect!r}, not an Effect"
            )
        effect.apply(self.engine, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "dead"
        return f"<Process {self.name} ({state})>"


class Engine:
    """The event loop: a clock and a heap of scheduled callbacks."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._seq = 0
        # Live processes only (insertion-ordered); finished processes are
        # dropped immediately so the engine does not retain dead state.
        self._live: dict[Process, None] = {}
        # Kernel statistic (read by the simulators' RunStats blocks).
        self.events_processed: int = 0

    # -- event scheduling -------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., None],
                 *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` simulated seconds.

        The heap entry is the flat tuple ``(time, seq, callback, args)``;
        no per-event closure is allocated.
        """
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, callback, args))

    # -- processes ----------------------------------------------------------
    def spawn(self, gen: Generator[Effect, Any, None],
              name: str = "process", start_at: float = 0.0) -> Process:
        """Create a process and schedule its first step at ``start_at``."""
        delay = start_at - self.now
        if delay < 0:
            raise ValueError(
                f"cannot start process {name!r} in the past "
                f"({start_at} < {self.now})"
            )
        process = Process(self, gen, name=name)
        self._live[process] = None
        self.schedule(delay, process.resume, None)
        return process

    def _process_finished(self, process: Process) -> None:
        self._live.pop(process, None)

    @property
    def live_processes(self) -> int:
        """Number of processes that have not yet finished."""
        return len(self._live)

    # -- running ------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Process events until the heap drains (or the time bound hits).

        Returns the final simulated time.  ``until`` stops the clock at a
        time bound; the clock never rewinds, so a bound already in the
        past (``until < now``) processes nothing and leaves the clock
        where it is.
        """
        count = 0
        heap = self._heap
        try:
            while heap:
                time, _, action, args = heap[0]
                if until is not None and time > until:
                    # Clamp forward only: resuming a run with an earlier
                    # bound must not rewind the simulated clock.
                    if until > self.now:
                        self.now = until
                    return self.now
                heapq.heappop(heap)
                if time < self.now:
                    raise SimulationError("event scheduled in the past")
                self.now = time
                action(*args)
                count += 1
        finally:
            self.events_processed += count
        if self._live:
            waiting = [p.name for p in self._live]
            raise SimulationError(
                f"deadlock: no events left but processes are waiting: "
                f"{waiting[:10]}"
            )
        return self.now
