"""Per-run kernel statistics attached to every :class:`RunResult`.

Every execution substrate fills a :class:`RunStats` block as it runs:
the event-driven MSG stack reports the engine's event count, the MSG
fast path the master receipts it served, the direct simulators their
chunk assignments, and the batch kernel per-replication shares of its
block timings.  The backend that ran the task stamps its registry name
on the block afterwards, so a result always knows which substrate
actually produced it — including after a capability fallback.

Stats are observability metadata, **not** results: two runs with
identical simulated observables but different stats compare equal
(``RunResult`` declares the field with ``compare=False``), and the
msg / msg-fast bit-identity suite tolerates differing stats while
asserting identical results.

The dataclass is plain slotted data, so it pickles through the campaign
process pool unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RunStats"]


@dataclass(slots=True)
class RunStats:
    """Kernel-level statistics of one simulated run.

    ``events`` counts the substrate's unit of progress: engine events on
    the event-driven path, master scheduling receipts on the MSG fast
    path, chunk assignments on the direct/batch kernels.  ``wall_time``
    is host wall-clock seconds spent inside the simulator (the batch
    kernel reports each replication's share of its block).
    """

    #: registry name of the backend that produced the run ("" when the
    #: simulator was driven directly, outside the backend registry)
    backend: str = ""
    #: True when a compiled fast path (msg-fast flattening or the batch
    #: kernel) produced the run instead of a per-event/per-chunk loop
    fast_path: bool = False
    events: int = 0
    wall_time: float = 0.0
