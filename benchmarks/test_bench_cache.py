"""Result-cache benchmark: warm quick campaign vs cold (PR 6).

The tentpole claim of the result cache is that re-running an identical
campaign costs disk lookups, not simulation.  This benchmark runs the
quick campaign cold (simulate + store) and then warm (serve every cell
from the cache), asserts the warm report matches the cold one modulo
wall-clock lines, and requires the warm pass to be at least 20x
faster.  ``BENCH_PR6.json`` keeps the historical snapshot of the
measured numbers; ``perfbench/`` is the repository benchmark.
"""

from __future__ import annotations

import io
import time

QUICK = dict(
    campaign_runs={1024: 5, 8192: 3}, fig9_runs=50,
    include_tss=False, simulator="msg-fast",
)
MIN_WARM_SPEEDUP = 20.0


def _stable(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines()
        if "took" not in line and "campaign time" not in line
    )


def test_bench_warm_cache_campaign(benchmark, tmp_path):
    from repro.experiments.campaign import run_full_campaign

    root = tmp_path / "cache"
    cold_out = io.StringIO()
    t0 = time.perf_counter()
    run_full_campaign(out=cold_out, cache=root, **QUICK)
    cold = time.perf_counter() - t0

    warm_out = io.StringIO()
    t0 = time.perf_counter()
    benchmark.pedantic(
        run_full_campaign, kwargs=dict(out=warm_out, cache=root, **QUICK),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    warm = time.perf_counter() - t0

    assert _stable(warm_out.getvalue()) == _stable(cold_out.getvalue())
    speedup = cold / warm
    print(f"\ncold {cold:.2f}s, warm {warm:.2f}s, speedup {speedup:.0f}x")
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm cached campaign only {speedup:.1f}x faster than cold "
        f"(cold {cold:.2f}s, warm {warm:.2f}s); expected >= "
        f"{MIN_WARM_SPEEDUP:.0f}x"
    )
