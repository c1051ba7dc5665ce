"""Batch-replication kernel vs the scalar direct simulator.

Measures the PR's headline cell — (SS, exponential, n=65,536, p=64,
h=0.5) — plus a FAC cell, batch against scalar, on one core.  The
scalar side is measured over a few replications and normalised per
replication (one scalar SS replication at this size takes ~2 s, so a
full 100-rep scalar campaign would dominate the suite); the asserted
speedup compares per-100-replication wall time.  BENCH_PR1.json keeps
the historical snapshot; ``perfbench/`` is the repository benchmark.
"""

from __future__ import annotations

import time

from repro.core.registry import get_technique
from repro.directsim import BatchDirectSimulator, DirectSimulator
from repro.experiments.bold_experiments import scheduling_params
from repro.workloads import ExponentialWorkload

from conftest import env_runs, once

BATCH_RUNS = 100


def _bench_cell(benchmark, technique: str, scalar_runs: int):
    params = scheduling_params(65536, 64)
    workload = ExponentialWorkload(1.0)
    factory = get_technique(technique)

    scalar = DirectSimulator(params, workload)
    t0 = time.perf_counter()
    for i in range(scalar_runs):
        scalar.run(factory, seed=i)
    scalar_per_rep = (time.perf_counter() - t0) / scalar_runs

    batch = BatchDirectSimulator(params, workload)
    results = once(
        benchmark, batch.run_batch, factory, BATCH_RUNS, 0
    )
    assert len(results) == BATCH_RUNS

    batch_time = benchmark.stats["mean"]
    scalar_equiv = scalar_per_rep * BATCH_RUNS
    speedup = scalar_equiv / batch_time
    benchmark.extra_info["scalar_s_per_rep"] = scalar_per_rep
    benchmark.extra_info["scalar_equiv_100_reps_s"] = scalar_equiv
    benchmark.extra_info["speedup_vs_scalar"] = speedup
    print(
        f"\n{technique.upper()} n=65,536 p=64: batch {BATCH_RUNS} reps "
        f"{batch_time:.2f}s, scalar {scalar_per_rep:.2f}s/rep "
        f"(~{scalar_equiv:.0f}s per {BATCH_RUNS}), speedup ~{speedup:.0f}x"
    )
    return speedup


def test_bench_batch_ss(benchmark):
    """SS: the chunk-count worst case (one chunk per task)."""
    speedup = _bench_cell(benchmark, "ss", scalar_runs=env_runs(2))
    assert speedup >= 5.0


def test_bench_batch_fac(benchmark):
    """FAC: few large batched chunks — the favourable case."""
    speedup = _bench_cell(benchmark, "fac", scalar_runs=env_runs(3))
    assert speedup >= 5.0
