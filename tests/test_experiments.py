"""Tests for the experiment harness (BOLD + TSS experiments, runner)."""

from __future__ import annotations

import pytest

from repro.experiments import (
    BOLD_PE_COUNTS,
    BOLD_TECHNIQUES,
    RunTask,
    bold_reference,
    bold_reference_available,
    bold_reference_metadata,
    compare_to_reference,
    fac_outlier_study,
    run_bold_experiment,
    run_replicated,
    run_tss_experiment,
    tss_published_speedups,
    tss_reproduction_verdicts,
)
from repro.experiments.bold_experiments import scheduling_params
from repro.workloads import ExponentialWorkload


class TestRunner:
    def test_run_task_direct(self):
        task = RunTask(
            technique="fac2",
            params=scheduling_params(256, 4),
            workload=ExponentialWorkload(1.0),
            simulator="direct",
        )
        result = task.execute()
        assert result.total_task_time > 0

    def test_run_task_msg(self):
        task = RunTask(
            technique="gss",
            params=scheduling_params(256, 4),
            workload=ExponentialWorkload(1.0),
            simulator="msg",
        )
        assert task.execute().num_chunks > 0

    def test_replications_are_deterministic(self):
        task = RunTask(
            technique="fac2",
            params=scheduling_params(256, 4),
            workload=ExponentialWorkload(1.0),
            simulator="direct",
        )
        a = run_replicated(task, 4, campaign_seed=3, processes=1)
        b = run_replicated(task, 4, campaign_seed=3, processes=1)
        assert [r.makespan for r in a] == [r.makespan for r in b]

    def test_replications_are_independent(self):
        task = RunTask(
            technique="fac2",
            params=scheduling_params(256, 4),
            workload=ExponentialWorkload(1.0),
            simulator="direct",
        )
        results = run_replicated(task, 4, campaign_seed=3, processes=1)
        assert len({r.makespan for r in results}) == 4

    def test_technique_kwargs_passed(self):
        task = RunTask(
            technique="gss",
            params=scheduling_params(256, 4),
            workload=ExponentialWorkload(1.0),
            simulator="direct",
            technique_kwargs={"min_chunk": 16},
        )
        result = task.execute()
        # min_chunk=16 caps the chunk count at ~n/16 + tail.
        assert result.num_chunks <= 256 // 16 + 4


class TestBoldExperiment:
    def test_small_experiment_shape(self):
        result = run_bold_experiment(
            n=256, pe_counts=(2, 8), techniques=("STAT", "SS", "FAC2"),
            runs=3, simulator="direct", seed=1,
        )
        assert set(result.values) == {"STAT", "SS", "FAC2"}
        assert all(len(v) == 2 for v in result.values.values())
        assert result.value("SS", 2) > result.value("FAC2", 2)

    def test_ss_wasted_time_dominated_by_overhead(self):
        # SS's POST_HOC wasted time is ~ h*n/p plus a small idle term.
        result = run_bold_experiment(
            n=256, pe_counts=(2,), techniques=("SS",), runs=3,
            simulator="direct", seed=1,
        )
        assert result.value("SS", 2) == pytest.approx(64.0, rel=0.2)

    def test_msg_and_direct_agree(self):
        kwargs = dict(
            n=256, pe_counts=(4,), techniques=("FAC2",), runs=10, seed=5
        )
        msg = run_bold_experiment(simulator="msg", **kwargs)
        direct = run_bold_experiment(simulator="direct", **kwargs)
        m, d = msg.value("FAC2", 4), direct.value("FAC2", 4)
        assert abs(m - d) / d < 0.5


@pytest.mark.skipif(
    not bold_reference_available(), reason="reference data not generated"
)
class TestReference:
    def test_reference_has_all_cells(self):
        for n in (1024, 8192, 65536, 524288):
            ref = bold_reference(n)
            assert set(ref) == set(BOLD_TECHNIQUES)
            for values in ref.values():
                assert len(values) == len(BOLD_PE_COUNTS)
                assert all(v > 0 for v in values)

    def test_reference_metadata(self):
        meta = bold_reference_metadata()
        assert meta["seed"] == 19971202
        assert "per-task" in meta["sampling"]

    def test_ss_anchor_value(self):
        """SS at n=524288, p=2 must be ~1.3e5 s (the paper's anchor)."""
        ref = bold_reference(524288)
        ss_at_2 = ref["SS"][BOLD_PE_COUNTS.index(2)]
        assert ss_at_2 == pytest.approx(131072, rel=0.01)

    def test_unknown_n_rejected(self):
        with pytest.raises(KeyError):
            bold_reference(999)

    def test_compare_to_reference_rows(self):
        result = run_bold_experiment(
            n=1024, pe_counts=BOLD_PE_COUNTS,
            techniques=("STAT", "FAC2"), runs=5, simulator="direct", seed=2,
        )
        rows = compare_to_reference(result)
        assert {r.technique for r in rows} == {"STAT", "FAC2"}
        for row in rows:
            assert len(row.discrepancies) == len(BOLD_PE_COUNTS)


class TestFacOutlierStudy:
    def test_small_study(self):
        study = fac_outlier_study(
            n=8192, p=2, runs=30, threshold=60.0, simulator="direct", seed=4
        )
        assert len(study.per_run) == 30
        assert study.mean > 0
        assert 0 <= study.num_above <= 30
        assert study.mean_excluding <= max(study.per_run)

    def test_heavy_tail_exists_at_paper_cell(self):
        """Some runs are far above the median (the Figure 9 phenomenon)."""
        study = fac_outlier_study(
            n=65536, p=2, runs=40, threshold=200.0, simulator="direct",
            seed=7,
        )
        import statistics

        med = statistics.median(study.per_run)
        assert max(study.per_run) > 3 * med


class TestTssExperiment:
    def test_small_sweep(self):
        result = run_tss_experiment(1, pe_counts=(2, 8, 16))
        assert set(result.speedups) == {
            "SS", "CSS", "GSS(1)", "GSS(80)", "TSS",
        }
        for curve in result.speedups.values():
            assert len(curve) == 3
            assert all(s > 0 for s in curve)

    def test_css_and_tss_near_ideal(self):
        result = run_tss_experiment(1, pe_counts=(16,))
        assert result.speedups["CSS"][0] > 14.0
        assert result.speedups["TSS"][0] > 14.0

    def test_metrics_triple_available(self):
        result = run_tss_experiment(2, pe_counts=(8,))
        m = result.metrics["TSS"][0]
        assert m.total == pytest.approx(8.0, rel=0.05)
        assert result.overheads["TSS"][0] >= 0
        assert result.imbalances["TSS"][0] >= 0

    def test_invalid_experiment_rejected(self):
        with pytest.raises(ValueError):
            run_tss_experiment(3)

    def test_published_data_shape(self):
        for exp in (1, 2):
            pub = tss_published_speedups(exp)
            assert all(len(v) == 10 for v in pub.values())

    def test_published_unknown_experiment(self):
        with pytest.raises(ValueError):
            tss_published_speedups(5)

    def test_verdicts_mark_ss_not_reproduced(self):
        """The paper's negative result: SS diverges from the 1993 values."""
        from repro.experiments.tss_experiments import TSS_PE_COUNTS

        result = run_tss_experiment(1, pe_counts=TSS_PE_COUNTS)
        verdicts = {
            v.technique: v for v in tss_reproduction_verdicts(result)
        }
        assert not verdicts["SS"].reproduced
        assert verdicts["CSS"].reproduced
        assert verdicts["TSS"].reproduced
