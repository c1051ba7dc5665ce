"""A fixed pure-Python loop that shows how fast the host runs right now.

Printed before and after each workload as run metadata, never as a
metric: when a verdict looks noisy, a slow probe traces it to the box
rather than to the program.
"""

from __future__ import annotations

import statistics
import time


def _loop() -> int:
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return total


def probe_ms(repeats: int = 7) -> float:
    """Median wall time of the loop, in milliseconds."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _loop()
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times)
