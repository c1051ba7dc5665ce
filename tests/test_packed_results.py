"""Packed run results: per-PE times in ``array('d')``, no instance dict.

Every backend, and every kernel of ``direct-batch``, returns its
per-PE compute times (and the MSG family its per-PE wait times) as one
float64 buffer inside a slotted :class:`~repro.results.RunResult`.  The
values are the floats a list held, so results pickle, compare and sum
as before; only their memory shrinks.
"""

from __future__ import annotations

import pickle
import tracemalloc
from array import array

import numpy as np
import pytest

from repro.core.params import SchedulingParams
from repro.core.registry import get_technique
from repro.directsim.batch import (
    BatchDirectSimulator,
    _lockstep_wins,
    _scalar_wins,
)
from repro.directsim.simulator import DirectSimulator
from repro.metrics.wasted_time import OverheadModel
from repro.obs.stats import RunStats
from repro.results import RunResult
from repro.simgrid.fastpath import FastMasterWorkerSimulation
from repro.simgrid.masterworker import MasterWorkerSimulation
from repro.workloads import ExponentialWorkload

P = 4
PARAMS = SchedulingParams(n=512, p=P, h=0.5, mu=1.0, sigma=1.0)
WORKLOAD = ExponentialWorkload(1.0)


def _batch(technique, reps):
    return BatchDirectSimulator(PARAMS, WORKLOAD).run_batch(
        get_technique(technique), range(reps)
    )


def _results(path):
    """The results one backend or ``direct-batch`` kernel returns."""
    if path == "direct":
        return [DirectSimulator(PARAMS, WORKLOAD).run(
            get_technique("fac2"), 1
        )]
    if path == "heap-walk":
        assert not _lockstep_wins(2, P)
        return _batch("fac2", 2)
    if path == "lock-step":
        assert _lockstep_wins(64, P)
        return _batch("fac2", 64)
    if path == "stepping":
        assert not _scalar_wins(16, P)
        return _batch("awf-c", 16)
    if path == "scalar-choice":
        assert _scalar_wins(2, P)
        return _batch("awf-c", 2)
    simulator = {
        "msg": MasterWorkerSimulation,
        "msg-fast": FastMasterWorkerSimulation,
    }[path]
    return [simulator(PARAMS, WORKLOAD).run(get_technique("fac2"), 1)]


PATHS = ("direct", "heap-walk", "lock-step", "stepping", "scalar-choice",
         "msg", "msg-fast")


@pytest.mark.parametrize("path", PATHS)
def test_every_path_packs_its_per_pe_times(path):
    for result in _results(path):
        assert type(result.compute_times) is array
        assert result.compute_times.typecode == "d"
        assert len(result.compute_times) == P
        assert type(result.chunks_per_worker) is list
        assert not hasattr(result, "__dict__")
        assert not hasattr(result.stats, "__dict__")
        if path.startswith("msg"):
            waits = result.extras["wait_times"]
            assert type(waits) is array and waits.typecode == "d"
            assert len(waits) == P


@pytest.mark.parametrize("path", PATHS)
def test_pickle_round_trip_gives_equal_results(path):
    results = _results(path)
    loaded = pickle.loads(pickle.dumps(results, pickle.HIGHEST_PROTOCOL))
    assert loaded == results
    for got, want in zip(loaded, results):
        assert type(got.compute_times) is array
        assert got.stats == want.stats
        assert got.extras == want.extras


def test_sequences_are_packed_once_on_construction():
    result = RunResult(
        technique="SS", n=4, p=2, h=0.0,
        overhead_model=OverheadModel.POST_HOC, makespan=2.5,
        compute_times=[2.5, 1.5], chunks_per_worker=[2, 2], num_chunks=4,
        total_task_time=4.0, extras={"wait_times": (0.25, 0.5)},
        stats=RunStats(),
    )
    assert result.compute_times == array("d", [2.5, 1.5])
    assert result.extras["wait_times"] == array("d", [0.25, 0.5])
    packed = result.compute_times
    result.__post_init__()
    assert result.compute_times is packed


def test_a_thousand_results_at_p_1024_unpickle_small():
    """1,000 results at p = 1,024, the paper's largest replication count
    and PE count, unpickle to under 25 MB traced (42 MB when each held a
    list of boxed floats and an instance dict)."""
    p = 1024
    rng = np.random.default_rng(0)
    results = [
        RunResult(
            technique="FAC2", n=524288, p=p, h=0.5,
            overhead_model=OverheadModel.POST_HOC,
            makespan=float(row.max()),
            compute_times=row.tolist(),
            chunks_per_worker=rng.integers(8, 24, p).tolist(),
            num_chunks=16 * p, total_task_time=float(row.sum()),
            extras={"lost_chunks": 0, "lost_tasks": 0},
            stats=RunStats(backend="direct-batch", fast_path=True,
                           events=16 * p, wall_time=0.01),
        )
        for row in rng.exponential(512.0, (1000, p))
    ]
    data = pickle.dumps(results, pickle.HIGHEST_PROTOCOL)
    del results
    tracemalloc.start()
    try:
        loaded = pickle.loads(data)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(loaded) == 1000
    assert size < 25 * 2**20, size / 2**20
