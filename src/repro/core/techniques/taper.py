"""TAP — the taper strategy (Lucco, 1992).

A further development of factoring: each request receives a chunk close to
the guided share ``r / p`` minus a safety margin derived from the task-time
coefficient of variation, so that the chunk finishes within the remaining
balanced time with confidence level ``alpha``:

.. math::

   v = \\alpha \\; \\sigma / \\mu

   chunk = \\frac{r}{p} + \\frac{v^2}{2}
           - v \\sqrt{2 \\frac{r}{p} + \\frac{v^2}{4}}

(Lucco 1992, as restated in Banicescu & Cariño's 2005 DLS survey.)  With
``sigma = 0`` the margin vanishes and TAP reduces to GSS.
"""

from __future__ import annotations

import math
from typing import Iterator

from ..base import Scheduler
from ..registry import register


def taper_chunk(remaining: int, p: int, mu: float, sigma: float,
                alpha: float) -> int:
    """Lucco's taper chunk size for ``remaining`` tasks, floored at 1."""
    if remaining <= 0:
        return 0
    x = remaining / p
    if sigma <= 0 or mu <= 0:
        return max(1, math.ceil(x))
    v = alpha * sigma / mu
    size = x + v * v / 2.0 - v * math.sqrt(2.0 * x + v * v / 4.0)
    return max(1, math.ceil(size))


@register
class Taper(Scheduler):
    """Guided chunks reduced by a variance-driven safety margin."""

    name = "tap"
    label = "TAP"
    requires = frozenset({"p", "r", "mu", "sigma"})
    deterministic_schedule = True

    def __init__(self, params, alpha: float | None = None):
        super().__init__(params)
        self.alpha = params.alpha if alpha is None else alpha
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")

    def _chunk_size(self, worker: int) -> int:
        mu = self.params.mu if self.params.mu is not None else 1.0
        sigma = self.params.sigma if self.params.sigma is not None else 0.0
        return taper_chunk(
            self.state.remaining, self.params.p, mu, sigma, self.alpha
        )

    def _chunk_sizes(self) -> Iterator[int]:
        mu = self.params.mu if self.params.mu is not None else 1.0
        sigma = self.params.sigma if self.params.sigma is not None else 0.0
        remaining, p = self.params.n, self.params.p
        while remaining > 0:
            size = taper_chunk(remaining, p, mu, sigma, self.alpha)
            size = max(1, min(size, remaining))
            yield size
            remaining -= size
