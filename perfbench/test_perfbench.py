"""Tests of the benchmark's own helpers.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import re

import pytest

import run
import tracing
from percentiles import (
    MIN_BEYOND,
    highest_tail,
    samples_needed,
    tail_percentile,
)

run.import_program()


# -- percentiles -------------------------------------------------------------

def test_tail_percentile_keeps_ten_samples_beyond():
    samples = list(range(1, 101))
    assert tail_percentile(samples, 0.9) == 90
    assert sum(s > 90 for s in samples) == MIN_BEYOND
    assert tail_percentile(samples, 0.5) == 50
    with pytest.raises(ValueError):
        tail_percentile(samples[:99], 0.9)
    with pytest.raises(ValueError):
        tail_percentile(samples[:19], 0.5)


@pytest.mark.parametrize("q", [0.5, 0.9, 0.95, 0.99])
def test_samples_needed_is_the_smallest_sufficient_count(q):
    n = samples_needed(q)
    tail_percentile(range(n), q)
    with pytest.raises(ValueError):
        tail_percentile(range(n - 1), q)


def test_highest_tail_keeps_ten_samples_beyond():
    assert highest_tail(range(60)) == (0.8, 47)
    assert highest_tail(range(200))[0] == 0.95
    with pytest.raises(ValueError):
        highest_tail(range(39))


def test_planned_sizes_support_every_reported_percentile():
    sizes = run.plan_sizes(1)
    for key in ("warm_passes", "hits", "misses"):
        highest_tail(range(sizes[key]))
        tail_percentile(range(sizes[key]), 0.5)


# -- self time ---------------------------------------------------------------

def _span(start, end, parent=None):
    return ["x", start, end, parent, None, "cold", None]


def test_self_time_subtracts_nested_children_once():
    spans = [
        _span(0.0, 10.0),          # root
        _span(1.0, 5.0, 0),        # child
        _span(2.0, 3.0, 1),        # grandchild: covered by the child
        _span(6.0, 7.0, 0),        # second child
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 3.0, 1.0, 1.0])


def test_self_time_merges_overlapping_and_clips_outside_children():
    spans = [
        _span(0.0, 10.0),
        _span(1.0, 4.0, 0),        # overlaps the next child (two threads)
        _span(3.0, 6.0, 0),
        _span(9.0, 12.0, 0),       # runs past the parent's end
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


# -- names -------------------------------------------------------------------

def test_metric_names_match_the_allowed_pattern():
    names = list(run.END_TO_END) + run.PER_LAYER
    assert len(names) == len(set(names))
    assert len(run.PER_LAYER) <= 128
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
        assert len(name) <= 64


def test_benchmark_json_lists_the_metrics_the_code_prints():
    with open(run.ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(
        run.END_TO_END.values())
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    assert [m["unit"] for m in spec["per_layer"]] == [
        run.per_layer_unit(name) for name in run.PER_LAYER]


# -- query plan --------------------------------------------------------------

def test_same_seed_same_queries_other_seed_other_queries():
    import workload_advise

    first = workload_advise.plan(7, hits=20, misses=20, malformed=3)
    assert workload_advise.plan(7, hits=20, misses=20, malformed=3) == first
    assert workload_advise.plan(8, hits=20, misses=20, malformed=3) != first


def test_plan_is_stratified_and_names_each_malformed_field():
    import workload_advise

    _, queries = workload_advise.plan(3, hits=100, misses=100, malformed=6)
    misses = [q.payload for q in queries if q.kind == "miss"]
    assert sum("scenario" in m for m in misses) == 10
    assert sum(m.get("scenario") == "failstop-quarter" for m in misses) == 5
    assert sum(m.get("simulator") == "msg-fast" for m in misses) == 5
    assert all(m["runs"] <= 64 for m in misses)
    assert all(m["n"] <= 4096 for m in misses if m["runs"] > 16)
    assert {q.bad_field for q in queries if q.kind == "malformed"} == {
        field for _, field in workload_advise.MALFORMED}


# -- determinism of traced counts --------------------------------------------

def _counts(metrics):
    return {name: value for name, value in metrics.items()
            if not name.endswith("_s")}


def _traced_figures(tmp_path):
    import workload_figures

    tracer = tracing.Tracer()
    undo = tracing.install(tracer, in_process_kernels=True)
    setup = workload_figures.Setup(tmp_path)
    try:
        result = workload_figures.run(
            setup, warm_passes=2, tracer=tracer,
            only=["fig3", "fig5", "robustness"])
    finally:
        setup.close()
        undo()
    assert result["failed"] == []
    return run.layer_metrics(tracer)


def _traced_advise(tmp_path, seed):
    import workload_advise
    from repro.backends import drain_fallback_events

    # Each benchmark run is a fresh process; the fallback log is
    # process-global and records a cell's fallback once per process.
    drain_fallback_events()
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, in_process_kernels=False)
    setup = workload_advise.Setup(tmp_path, seed, hits=4, misses=4,
                                  malformed=2)
    try:
        result = workload_advise.run(setup, seed, recompute=1,
                                     tracer=tracer)
    finally:
        setup.close()
        undo()
    assert result["failed"] == []
    return run.layer_metrics(tracer)


def test_a_warm_pass_that_drifts_from_the_cold_pass_fails(tmp_path,
                                                          monkeypatch):
    import repro.figures
    import workload_figures

    real = repro.figures.generate_artifacts
    passes = []

    def second_warm_pass_drifts(out, **kwargs):
        manifest = real(out, **kwargs)
        passes.append(out)
        if len(passes) == 3:
            manifest.files["fig3.csv"] = "0" * 64
        return manifest

    monkeypatch.setattr(repro.figures, "generate_artifacts",
                        second_warm_pass_drifts)
    monkeypatch.setenv("REPRO_WORKERS", "1")
    setup = workload_figures.Setup(tmp_path)
    try:
        result = workload_figures.run(setup, warm_passes=3, only=["fig3"])
    finally:
        setup.close()
    assert len(set(passes)) == 4  # every pass wrote a directory of its own
    assert result["attempted"] == 4
    assert result["failed"] == ["warm-pass-1:fig3"]


def test_traced_figures_counts_repeat_exactly(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "1")
    first = _traced_figures(tmp_path / "a")
    second = _traced_figures(tmp_path / "b")
    assert _counts(first) == _counts(second)
    assert first["cold.batch.closed.calls"] > 0
    assert first["cold.cache.put.bytes"] > 0
    assert first["warm.cache.hit_ratio"] == 1.0
    assert first["warm.figures.artifacts"] == 6


def test_traced_advise_counts_repeat_exactly(tmp_path):
    first = _traced_advise(tmp_path / "a", seed=5)
    second = _traced_advise(tmp_path / "b", seed=5)
    assert _counts(first) == _counts(second)
    assert first["cold.pool.items"] > 0
    assert first["serve.rejected"] == 2
    assert first["warm.cache.hit_ratio"] == 1.0


def test_install_undo_restores_the_program():
    from repro.cache import ResultCache
    from repro.experiments import runner
    from repro.serve import advisor

    before = (ResultCache.get, runner.run_replicated_batch,
              advisor.run_replicated_batch, advisor.summarize)
    undo = tracing.install(tracing.Tracer(), in_process_kernels=True)
    assert advisor.run_replicated_batch is not before[2]
    undo()
    assert (ResultCache.get, runner.run_replicated_batch,
            advisor.run_replicated_batch, advisor.summarize) == before


def test_fallbacks_are_counted_although_the_program_drains_the_log():
    from repro.backends import drain_fallback_events, resolve_backend
    from repro.core.params import SchedulingParams
    from repro.experiments.runner import RunTask
    from repro.workloads.distributions import ExponentialWorkload

    # msg-fast cannot serve AF's feedback loop and falls back to msg;
    # the figures pipeline drains the log around every artifact
    task = RunTask(technique="af", params=SchedulingParams(n=256, p=4),
                   workload=ExponentialWorkload(1.0), simulator="msg-fast")
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, in_process_kernels=True)
    try:
        drain_fallback_events()
        with tracer.op("cold", "r1", "root"):
            resolve_backend(task)
            resolve_backend(task)  # already logged: not a new event
            drain_fallback_events()
            resolve_backend(task)
    finally:
        undo()
    assert tracer.counts["cold.backends.fallbacks"] == 2


def test_wrappers_do_nothing_without_a_phase():
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, in_process_kernels=True)
    try:
        from repro.core.schedule import precompute_schedule
        from repro.core.registry import get_technique
        from repro.core.params import SchedulingParams

        scheduler = get_technique("gss")(SchedulingParams(n=64, p=4))
        precompute_schedule(scheduler)
        assert tracer.spans == []
        with tracer.op("cold", "r1", "root"):
            precompute_schedule(get_technique("gss")(
                SchedulingParams(n=64, p=4)))
        assert [s[tracing.NAME] for s in tracer.spans] == ["root", "schedule"]
        assert tracer.spans[1][tracing.PARENT] == 0
        assert tracer.spans[1][tracing.REQUEST] == "r1"
    finally:
        undo()
