"""MSG fast path vs the event-driven master-worker simulator.

Measures this PR's headline cell — (SS, exponential, n=65,536, p=64,
h=0.5) on the MSG backend — event-driven against the compiled fast
path, plus a FAC2 cell.  The event-driven side is measured over a few
runs and normalised per run; the asserted speedup compares per-run wall
time and the two results are checked bit-identical before timing is
trusted.  BENCH_PR2.json keeps the historical snapshot;
``perfbench/`` is the repository benchmark.
"""

from __future__ import annotations

import time

from repro.core.registry import get_technique
from repro.experiments.bold_experiments import scheduling_params
from repro.simgrid.fastpath import FastMasterWorkerSimulation
from repro.simgrid.masterworker import MasterWorkerSimulation
from repro.workloads import ExponentialWorkload

from conftest import env_runs, once

FAST_RUNS = 20


def _bench_cell(benchmark, technique: str, event_runs: int):
    params = scheduling_params(65536, 64)
    workload = ExponentialWorkload(1.0)
    factory = get_technique(technique)

    event = MasterWorkerSimulation(params, workload)
    t0 = time.perf_counter()
    event_results = [event.run(factory, seed=i) for i in range(event_runs)]
    event_per_run = (time.perf_counter() - t0) / event_runs

    fast = FastMasterWorkerSimulation(params, workload)
    results = once(
        benchmark, fast.run_many, factory,
        list(range(FAST_RUNS)),
    )
    assert len(results) == FAST_RUNS
    assert fast.last_run_fast
    # Same seeds on both sides: the timing comparison is only meaningful
    # because the outputs are the same bits.
    for a, b in zip(event_results, results):
        assert a.makespan == b.makespan
        assert a.extras == b.extras

    fast_per_run = benchmark.stats["mean"] / FAST_RUNS
    speedup = event_per_run / fast_per_run
    benchmark.extra_info["event_s_per_run"] = event_per_run
    benchmark.extra_info["fast_s_per_run"] = fast_per_run
    benchmark.extra_info["speedup_vs_event"] = speedup
    print(
        f"\n{technique.upper()} n=65,536 p=64 (MSG): event "
        f"{event_per_run:.2f}s/run, fast {fast_per_run:.3f}s/run, "
        f"speedup ~{speedup:.0f}x"
    )
    return speedup


def test_bench_msg_fast_ss(benchmark):
    """SS: the event-count worst case (one chunk per task)."""
    speedup = _bench_cell(benchmark, "ss", event_runs=env_runs(2))
    assert speedup >= 5.0


def test_bench_msg_fast_fac2(benchmark):
    """FAC2: a realistic chunked technique (few hundred chunks)."""
    speedup = _bench_cell(benchmark, "fac2", event_runs=env_runs(3))
    assert speedup >= 2.0
