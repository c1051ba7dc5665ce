"""Order statistics for the benchmark's timing samples."""

from __future__ import annotations

import math

#: a reported tail percentile keeps at least this many samples beyond it
MIN_BEYOND = 10


def tail_percentile(samples, q: float) -> float:
    """The nearest-rank ``q``-quantile of ``samples`` (``0 < q < 1``).

    Raises ``ValueError`` unless at least :data:`MIN_BEYOND` samples lie
    beyond the reported one, so a tail figure is never set by a handful
    of outliers.
    """
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered))
    if not 0 < q < 1 or rank < 1 or len(ordered) - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {len(ordered)} samples would leave fewer "
            f"than {MIN_BEYOND} beyond it; need at least "
            f"{samples_needed(q)} samples"
        )
    return ordered[rank - 1]


def samples_needed(q: float) -> int:
    """The fewest samples that let :func:`tail_percentile` report ``q``."""
    n = MIN_BEYOND + 1
    while n - math.ceil(q * n) < MIN_BEYOND:
        n += 1
    return n


#: tail percentiles reported beside a median, highest first
TAILS = (0.99, 0.95, 0.9, 0.8, 0.75)


def highest_tail(samples) -> tuple[float, float]:
    """``(q, value)``: the highest of :data:`TAILS` that ``samples`` allow."""
    for q in TAILS:
        if len(samples) >= samples_needed(q):
            return q, tail_percentile(samples, q)
    raise ValueError(f"{len(samples)} samples allow no tail percentile")
