"""Bit-identity of the compiled MSG fast path to the event-driven path.

The fast path is only allowed to exist because it is *exactly* the
event-driven simulator, float for float — no tolerance-based comparisons
here, everything is ``==``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.params import SchedulingParams
from repro.core.registry import get_technique
from repro.core.schedule import (
    ScheduleUnavailableError,
    schedule_ineligibility,
)
from repro.metrics.wasted_time import OverheadModel
from repro.simgrid.fastpath import FastMasterWorkerSimulation
from repro.simgrid.masterworker import MasterWorkerSimulation
from repro.simgrid.platform import star_platform
from repro.workloads import ConstantWorkload, ExponentialWorkload

#: the twelve techniques with a precomputable (closed-form) schedule
CLOSED_FORM = (
    "css", "fac", "fac2", "fiss", "fsc", "gss",
    "ss", "stat", "tap", "tfss", "tss", "viss",
)

PARAMS = SchedulingParams(n=1024, p=4, h=0.5, mu=1.0, sigma=1.0)


def factory_for(name):
    return lambda params: get_technique(name)(params)


def assert_bit_identical(slow, fast):
    assert slow.technique == fast.technique
    assert slow.makespan == fast.makespan
    assert slow.compute_times == fast.compute_times
    assert slow.chunks_per_worker == fast.chunks_per_worker
    assert slow.num_chunks == fast.num_chunks
    assert slow.total_task_time == fast.total_task_time
    assert slow.extras == fast.extras
    assert len(slow.chunk_log) == len(fast.chunk_log)
    for a, b in zip(slow.chunk_log, fast.chunk_log):
        assert (a.record.index, a.record.worker,
                a.record.start, a.record.size) == (
            b.record.index, b.record.worker, b.record.start, b.record.size)
        assert a.start_time == b.start_time
        assert a.elapsed == b.elapsed


@pytest.mark.parametrize("technique", CLOSED_FORM)
@pytest.mark.parametrize("workload_cls", [ConstantWorkload, ExponentialWorkload])
def test_bold_configuration_bit_identical(technique, workload_cls):
    """BOLD setup (free network, POST_HOC): every closed-form technique."""
    workload = workload_cls(1.0)
    slow = MasterWorkerSimulation(PARAMS, workload, record_chunks=True)
    fast = FastMasterWorkerSimulation(PARAMS, workload, record_chunks=True)
    result_slow = slow.run(factory_for(technique), seed=42)
    result_fast = fast.run(factory_for(technique), seed=42)
    assert result_fast.stats.fast_path
    assert_bit_identical(result_slow, result_fast)


@pytest.mark.parametrize("model", list(OverheadModel))
def test_overhead_models_bit_identical(model):
    workload = ExponentialWorkload(1.0)
    slow = MasterWorkerSimulation(PARAMS, workload, overhead_model=model)
    fast = FastMasterWorkerSimulation(PARAMS, workload,
                                      overhead_model=model)
    for technique in ("ss", "gss", "fac2"):
        result_fast = fast.run(factory_for(technique), seed=7)
        assert result_fast.stats.fast_path
        assert_bit_identical(
            slow.run(factory_for(technique), seed=7), result_fast
        )


def test_heterogeneous_platform_and_staggered_starts_bit_identical():
    workload = ExponentialWorkload(1.0)
    platform = star_platform(
        4, worker_speed=[1.0, 2.0, 0.5, 3.0], bandwidth=1e6, latency=1e-4
    )
    starts = [0.0, 3.0, 0.0, 7.5]
    slow = MasterWorkerSimulation(PARAMS, workload, platform=platform,
                                  start_times=starts)
    fast = FastMasterWorkerSimulation(PARAMS, workload, platform=platform,
                                      start_times=starts)
    result_fast = fast.run(factory_for("fac"), seed=11)
    assert result_fast.stats.fast_path
    assert_bit_identical(slow.run(factory_for("fac"), seed=11), result_fast)


def run_entry(fast, entry, technique):
    """Call ``fast.run`` or ``fast.run_many`` for one seeded run."""
    if entry == "run":
        return fast.run(factory_for(technique), seed=3)
    return fast.run_many(factory_for(technique), [3])


@pytest.mark.parametrize("entry", ["run", "run_many"])
@pytest.mark.parametrize("technique", ["awf", "awf-c", "af", "bold", "wf"])
def test_ineligible_techniques_raise(technique, entry):
    """Adaptive / worker-dependent techniques have no fast path; the
    simulator refuses them with the reason (the backend registry is the
    one place that falls back to msg)."""
    fast = FastMasterWorkerSimulation(PARAMS, ExponentialWorkload(1.0))
    reason = schedule_ineligibility(get_technique(technique))
    with pytest.raises(ScheduleUnavailableError) as err:
        run_entry(fast, entry, technique)
    assert reason in str(err.value)


def test_ineligibility_reasons():
    assert schedule_ineligibility(get_technique("ss")(PARAMS)) is None
    assert "adaptive" in schedule_ineligibility(get_technique("awf")(PARAMS))
    assert schedule_ineligibility(get_technique("bold")(PARAMS))


def test_scheduler_reuse_rejected_on_fast_path():
    workload = ConstantWorkload(1.0)
    fast = FastMasterWorkerSimulation(PARAMS, workload)
    scheduler = get_technique("ss")(PARAMS)
    fast.run(scheduler, seed=1)
    with pytest.raises(ValueError, match="already been used"):
        fast.run(scheduler, seed=1)


def test_run_many_matches_individual_runs():
    workload = ExponentialWorkload(1.0)
    fast = FastMasterWorkerSimulation(PARAMS, workload)
    seeds = np.random.SeedSequence(21).spawn(4)
    batch = fast.run_many(factory_for("fac2"), seeds)
    for seed, result in zip(seeds, batch):
        assert_bit_identical(fast.run(factory_for("fac2"), seed), result)


def test_both_paths_carry_run_stats():
    """msg and msg-fast results each carry a RunStats block; the event
    path reports kernel counters, the fast path its structural
    analogues — results stay equal despite different stats."""
    workload = ExponentialWorkload(1.0)
    slow = MasterWorkerSimulation(PARAMS, workload)
    fast = FastMasterWorkerSimulation(PARAMS, workload)
    result_slow = slow.run(factory_for("gss"), seed=42)
    result_fast = fast.run(factory_for("gss"), seed=42)
    assert result_slow.stats is not None
    assert result_fast.stats is not None
    assert not result_slow.stats.fast_path
    assert result_fast.stats.fast_path
    assert result_slow.stats.events > 0
    assert result_fast.stats.events > 0
    assert_bit_identical(result_slow, result_fast)
    # Dataclass equality ignores the (differing) stats blocks entirely.
    assert result_slow.stats.events != result_fast.stats.events
    assert result_slow == result_fast
