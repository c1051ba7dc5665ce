"""Differential properties: each fast path against its scalar oracle.

* ``direct-batch`` ≡ ``direct`` run for run under the same seeds, for
  every technique (closed-form or stepping), on any workload, clean or
  under any scenario preset (the kernel replays closed-form techniques
  under fluctuations; the registry sends every other perturbed cell to
  ``direct``), and the stepping kernel ≡ ``direct`` on every clean
  feedback block, also one narrow enough for ``run_batch`` to run on
  the scalar loop;
* ``msg-fast`` ≡ ``msg`` run for run, for every closed-form technique
  on any workload;
* the closed-form kernel's two loops, the heap walk and the lock-step
  loop, return the same results for the same clean block, and a block
  under a fluctuation model is walked however wide it is;
* on every backend, asking a sweep for more runs keeps its first runs.

Every comparison is ``==`` on whole :class:`RunResult` objects, whose
equality covers every simulated field (the kernel stats are excluded).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import BackendResolutionError, get_backend
from repro.core.params import SchedulingParams
from repro.core.registry import get_technique, technique_names
from repro.core.schedule import (
    SEGMENT_CHUNKS,
    ScheduleUnavailableError,
    closed_form_supported,
    precompute_schedule,
)
from repro.directsim import BatchDirectSimulator, DirectSimulator, OverheadModel
from repro.directsim.batch import _lockstep_wins
from repro.directsim.faults import AllWorkersFailedError
from repro.experiments.runner import RunTask, run_replicated
from repro.scenarios import get_scenario, scenario_names
from repro.simgrid.fastpath import FastMasterWorkerSimulation
from repro.simgrid.masterworker import MasterWorkerSimulation
from repro.simgrid.platform import star_platform
from repro.workloads import ConstantWorkload, ExponentialWorkload
from repro.workloads.distributions import (
    WORKLOAD_DISTS,
    BimodalWorkload,
    GammaWorkload,
    PerTaskSampling,
    TraceWorkload,
    UniformWorkload,
    decreasing_workload,
    workload_from_spec,
)
from repro.workloads.generator import make_rng

TECHNIQUES = technique_names()
CLOSED_FORM = tuple(t for t in TECHNIQUES if closed_form_supported(t))


@st.composite
def cells(draw, techniques, max_p):
    """A cell: technique, params, overhead model, starts and replications."""
    n = draw(st.integers(min_value=1, max_value=2048))
    p = draw(st.integers(min_value=1, max_value=max_p))
    return {
        "technique": draw(st.sampled_from(techniques)),
        "params": SchedulingParams(
            n=n, p=p, h=draw(st.sampled_from([0.0, 0.1, 1.0])),
            mu=1.0, sigma=1.0,
        ),
        "model": draw(st.sampled_from(list(OverheadModel))),
        "speeds": draw(st.lists(
            st.sampled_from([0.5, 1.0, 1.5, 2.0]), min_size=p, max_size=p
        )),
        "start_times": draw(st.lists(
            st.sampled_from([0.0, 0.25, 2.0]), min_size=p, max_size=p
        )),
        "reps": draw(st.sampled_from([1, 2, 5])),
        "seed": draw(st.integers(min_value=0, max_value=2**31 - 1)),
    }


def any_workloads(n):
    return st.sampled_from([
        ConstantWorkload(0.3),
        ExponentialWorkload(1.0),
        GammaWorkload(2.0, 0.5),
        UniformWorkload(0.1, 2.0),
        BimodalWorkload(0.2, 3.0),
        PerTaskSampling(ExponentialWorkload(1.0)),
        decreasing_workload(n, 2.0, 0.3),
        TraceWorkload(np.linspace(0.1, 3.0, n)),
    ])


@settings(max_examples=150, deadline=None)
@given(
    cell=cells(TECHNIQUES, max_p=64),
    scenario=st.sampled_from((None,) + scenario_names()),
    data=st.data(),
)
def test_direct_batch_equals_direct(cell, scenario, data):
    params = cell["params"]
    workload = data.draw(any_workloads(params.n))
    scenario = None if scenario is None else get_scenario(scenario)
    fluctuation = None if scenario is None else (
        scenario.fluctuation_model(params.p)
    )
    kwargs = dict(
        overhead_model=cell["model"],
        speeds=cell["speeds"],
        start_times=cell["start_times"],
        fluctuation=fluctuation,
    )
    factory = get_technique(cell["technique"])
    seeds = [
        np.random.SeedSequence([cell["seed"], i]) for i in range(cell["reps"])
    ]
    batch = BatchDirectSimulator(params, workload, **kwargs)
    if scenario is not None and (
        scenario.has_faults or not closed_form_supported(factory)
    ):
        # Not replayed by the kernel: a feedback technique refuses a
        # fluctuation model, the simulator takes no fault model and the
        # backend refuses both, so the registry sends the cell to
        # direct, run for run.
        if fluctuation is not None and not closed_form_supported(factory):
            with pytest.raises(ScheduleUnavailableError):
                batch.run_batch(factory, seeds)
        task = RunTask(
            technique=cell["technique"], params=params, workload=workload,
            overhead_model=cell["model"], simulator="direct-batch",
            scenario=scenario,
        )
        with pytest.raises(BackendResolutionError):
            get_backend("direct-batch").run_seeds(task, seeds)
        direct = dataclasses.replace(task, simulator="direct")
        sweep = dict(runs=cell["reps"], campaign_seed=cell["seed"],
                     processes=1)
        try:
            want = run_replicated(direct, **sweep)
        except AllWorkersFailedError:  # the scenario killed every PE
            with pytest.raises(AllWorkersFailedError):
                run_replicated(task, **sweep)
            return
        assert run_replicated(task, **sweep) == want
        return
    direct = DirectSimulator(params, workload, **kwargs)
    want = [direct.run(factory, seed) for seed in seeds]
    assert batch.run_batch(factory, seeds) == want
    if not closed_form_supported(factory):
        # run_batch runs a block this narrow on the scalar loop, so the
        # stepping kernel is checked on the same seeds directly
        assert batch._run_stepping_block(
            factory(params), [make_rng(seed) for seed in seeds]
        ) == want


@settings(max_examples=60, deadline=None)
@given(
    cell=cells(CLOSED_FORM, max_p=64),
    record_chunks=st.booleans(),
    data=st.data(),
)
def test_msg_fast_equals_msg(cell, record_chunks, data):
    params = cell["params"]
    workload = data.draw(any_workloads(params.n))
    platform = star_platform(params.p, worker_speed=cell["speeds"])
    options = dict(
        overhead_model=cell["model"],
        start_times=cell["start_times"],
        record_chunks=record_chunks,
    )
    factory = get_technique(cell["technique"])
    seeds = [
        np.random.SeedSequence([cell["seed"], i]) for i in range(cell["reps"])
    ]
    slow = MasterWorkerSimulation(
        params, workload, platform=platform, **options
    )
    fast = FastMasterWorkerSimulation(
        params, workload, platform=platform, **options
    )
    assert fast.run_many(factory, seeds) == [
        slow.run(factory, seed) for seed in seeds
    ]


@pytest.mark.parametrize(
    "workload", [ConstantWorkload(1.0), ExponentialWorkload(1.0)],
    ids=lambda w: type(w).__name__,
)
@pytest.mark.parametrize("scenario", [None, "wave-mild", "slow-quarter"])
@pytest.mark.parametrize("model", list(OverheadModel))
def test_heap_walk_and_lockstep_agree(model, scenario, workload):
    """One clean block through both closed-form loops (constant times
    make every pop a tie, so the tie-break is exercised too); the
    lock-step loop steps through three tiles.  The lock-step loop has
    no fluctuation model: a block under a scenario, even one wide
    enough for that loop, is walked and equals direct."""
    # the scenario rows run the scalar oracle 64 times
    n = 2 * SEGMENT_CHUNKS + 904 if scenario is None else 400
    params = SchedulingParams(n=n, p=8, h=0.1, mu=1.0, sigma=1.0)
    kwargs = dict(
        overhead_model=model,
        speeds=[1.0, 2.0, 0.5, 1.5, 1.0, 1.0, 2.0, 0.5],
        start_times=[0.0, 2.0, 0.25, 0.0, 0.0, 2.0, 0.0, 0.25],
    )
    ss = get_technique("ss")
    if scenario is not None:
        kwargs["fluctuation"] = get_scenario(scenario).fluctuation_model(
            params.p
        )
        seeds = range(3, 3 + 64)
        assert _lockstep_wins(len(seeds), params.p)
        direct = DirectSimulator(params, workload, **kwargs)
        assert BatchDirectSimulator(params, workload, **kwargs).run_batch(
            ss, seeds
        ) == [direct.run(ss, seed) for seed in seeds]
        return
    simulator = BatchDirectSimulator(params, workload, **kwargs)
    schedule = precompute_schedule(ss(params))
    tiles = list(schedule.block_times(
        workload, [make_rng(3 + i) for i in range(5)]
    ))
    assert len(tiles) == 3
    rng = make_rng(4)
    heap = [simulator._walk(row.tolist(), rng) for row in np.hstack(tiles)]
    assert heap == simulator._run_lockstep(iter(tiles), 5)


@pytest.mark.parametrize("dist", WORKLOAD_DISTS)
@pytest.mark.parametrize("simulator", ["direct", "direct-batch", "msg",
                                       "msg-fast"])
def test_longer_sweeps_keep_their_first_runs(simulator, dist):
    """The first five runs of a 70-run sweep are the 5-run sweep's."""
    for technique in ("bold", "awf-c", "fac2", "gss"):
        task = RunTask(
            technique=technique,
            params=SchedulingParams(n=512, p=4, h=0.5, mu=1.0, sigma=1.0),
            workload=workload_from_spec(dist, 1.0),
            simulator=simulator,
        )
        long = run_replicated(task, 70, campaign_seed=11, processes=1)
        short = run_replicated(task, 5, campaign_seed=11, processes=1)
        assert long[:5] == short, technique
