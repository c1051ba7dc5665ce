"""MSG-like messaging layer: mailboxes, send/receive effects, tasks.

The MSG interface of SimGrid revolves around *tasks* sent between
processes through named *mailboxes*.  This module provides the same
vocabulary on top of the DES kernel:

* :class:`Mailbox` — a named rendezvous point attached to a host (for
  routing).  Messages queue when no receiver waits; receivers queue when
  no message waits.
* :class:`Send` — blocking send: the sender resumes after the network
  transfer time of the message, at which point the message is delivered.
* :class:`Receive` — blocking receive on a mailbox.
* :class:`ComputeTask` — an amount of work in task-time seconds at unit
  speed; executing it on a host takes ``amount / host.speed``.

The paper's assumption that "the application data is replicated and no
data transfer is necessary" maps to small, constant control-message sizes
(:data:`REQUEST_SIZE` / :data:`WORK_MESSAGE_SIZE` / :data:`FINALIZE_SIZE`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any

from .engine import Effect, Engine, Process
from .platform import Host, Platform

#: bytes in a worker's work-request message
REQUEST_SIZE = 64.0
#: bytes in the master's chunk-assignment message (control only; the
#: application data is replicated, per Section II of the paper)
WORK_MESSAGE_SIZE = 64.0
#: bytes in the master's finalization message
FINALIZE_SIZE = 64.0


@dataclass(frozen=True, slots=True)
class Message:
    """An application message: payload plus simulated metadata."""

    payload: Any
    source: str          # sending host name
    size: float          # bytes
    sent_at: float       # simulated send start time
    delivered_at: float  # simulated delivery time


class Mailbox:
    """A named message queue attached to a host (for route lookup)."""

    __slots__ = ("name", "host", "_messages", "_waiting")

    def __init__(self, name: str, host: Host):
        self.name = name
        self.host = host
        self._messages: deque[Message] = deque()
        self._waiting: deque[Process] = deque()

    def deliver(self, message: Message) -> None:
        """Deposit a message; wake one waiting receiver if any.

        Rendezvous fast path: a delivery meeting a waiting receiver
        resumes the receiver *directly*, inside the current event, rather
        than scheduling a zero-delay wake-up through the heap.  The
        receiver immediately yields its next effect (which schedules
        normally), so the recursion is one level deep and the observable
        event order — everything happens at the same simulated time, in
        the same relative order — is unchanged.
        """
        if self._waiting:
            self._waiting.popleft().resume(message)
        else:
            self._messages.append(message)

    def try_take(self, process: Process) -> Message | None:
        """Take a queued message or register ``process`` as a waiter."""
        if self._messages:
            return self._messages.popleft()
        self._waiting.append(process)
        return None

    @property
    def pending_messages(self) -> int:
        return len(self._messages)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Mailbox {self.name} on {self.host.name}: "
            f"{len(self._messages)} msgs, {len(self._waiting)} waiters>"
        )


class Send(Effect):
    """Blocking send of ``payload`` from ``src_host`` to ``mailbox``.

    The transfer occupies the sender for the route's transfer time; the
    message is delivered to the mailbox when the transfer completes.
    """

    __slots__ = ("mailbox", "payload", "size", "src_host", "platform")

    def __init__(self, platform: Platform, src_host: Host, mailbox: Mailbox,
                 payload: Any, size: float = WORK_MESSAGE_SIZE):
        if size < 0:
            raise ValueError("message size must be >= 0")
        self.platform = platform
        self.src_host = src_host
        self.mailbox = mailbox
        self.payload = payload
        self.size = size

    def apply(self, engine: Engine, process: Process) -> None:
        duration = self.platform.transfer_time(
            self.src_host.name, self.mailbox.host.name, self.size
        )
        message = Message(
            payload=self.payload,
            source=self.src_host.name,
            size=self.size,
            sent_at=engine.now,
            delivered_at=engine.now + duration,
        )
        engine.schedule(duration, self._complete, process, message)

    def _complete(self, process: Process, message: Message) -> None:
        """Transfer done: deliver the message, then resume the sender."""
        self.mailbox.deliver(message)
        process.resume(None)


class Receive(Effect):
    """Blocking receive: resumes with the next :class:`Message`."""

    __slots__ = ("mailbox",)

    def __init__(self, mailbox: Mailbox):
        self.mailbox = mailbox

    def apply(self, engine: Engine, process: Process) -> None:
        message = self.mailbox.try_take(process)
        if message is not None:
            engine.schedule(0.0, process.resume, message)


@dataclass(frozen=True, slots=True)
class ComputeTask:
    """An amount of computation, in seconds at unit host speed."""

    name: str
    amount: float

    def __post_init__(self) -> None:
        if self.amount < 0:
            raise ValueError("compute amount must be >= 0")

    def duration_on(self, host: Host) -> float:
        return self.amount / host.speed


class Execute(Effect):
    """Execute a :class:`ComputeTask` on ``host`` (occupies the process)."""

    __slots__ = ("task", "host")

    def __init__(self, task: ComputeTask, host: Host):
        self.task = task
        self.host = host

    def apply(self, engine: Engine, process: Process) -> None:
        engine.schedule(self.task.duration_on(self.host), process.resume, None)
