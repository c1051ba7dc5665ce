"""Speedup and the Tzen-Ni performance metrics (TSS publication, Eq. 11-13).

Tzen & Ni instrument the parallel loop so every processor's time splits
into computing (X), scheduling (O) and waiting for synchronisation (W).
With ``L`` the serial workload time and ``P`` processors:

.. math::

   r      = \\frac{L \\cdot P}{X + O + W}   \\quad (speedup)

   \\theta = \\frac{O \\cdot P}{X + O + W}  \\quad (degree\\ of\\ scheduling\\ overhead)

   \\lambda = \\frac{W \\cdot P}{X + O + W} \\quad (degree\\ of\\ load\\ imbalancing)

Since ``X + O + W = P * T`` (every processor is always in one of the three
states until the makespan ``T``), these reduce to ``r = L / T``,
``theta = O_total / T`` and ``lambda = W_total / T``, where the totals sum
over processors.  In the ideal case ``r + theta + lambda = P``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # avoid a results <-> metrics import cycle at runtime
    from ..results import RunResult


@dataclass(frozen=True)
class TzenNiMetrics:
    """The triple (r, theta, lambda) of one run."""

    speedup: float                 # r
    scheduling_overhead: float     # theta — avg processors wasted scheduling
    load_imbalance: float          # lambda — avg processors wasted waiting

    @property
    def total(self) -> float:
        """r + theta + lambda; at most P (equals P without contention)."""
        return self.speedup + self.scheduling_overhead + self.load_imbalance


def tzen_ni_metrics(result: RunResult,
                    comm_as_overhead: bool = True) -> TzenNiMetrics:
    """Compute (r, theta, lambda) from a run result.

    The scheduling time ``O`` counts ``h`` per scheduling operation plus —
    when ``comm_as_overhead`` and the run recorded request round-trip wait
    times — the time workers spent in the request/assign message exchange,
    which is scheduling overhead in the Tzen-Ni accounting (their O is the
    time spent obtaining loop indices).
    """
    t = result.makespan
    if t <= 0:
        raise ValueError("makespan must be positive to compute metrics")
    p = result.p
    x_total = sum(result.compute_times)
    o_total = result.h * result.num_chunks
    if comm_as_overhead and "wait_times" in result.extras:
        o_total += sum(result.extras["wait_times"])
    o_total = min(o_total, p * t - x_total)
    w_total = p * t - x_total - o_total
    return TzenNiMetrics(
        speedup=result.total_task_time / t,
        scheduling_overhead=o_total / t,
        load_imbalance=w_total / t,
    )
