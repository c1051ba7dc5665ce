"""Tests for the experiment harness (BOLD + TSS experiments, runner).

The experiments run through their registry producers
(``ArtifactSpec.produce`` with overrides), the one definition of each
artifact.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments import (
    BOLD_PE_COUNTS,
    BOLD_TECHNIQUES,
    RunTask,
    bold_reference,
    bold_reference_available,
    bold_reference_metadata,
    generate_bold_reference,
    run_replicated,
    tss_published_speedups,
)
from repro.experiments.bold_experiments import _cell_seed, scheduling_params
from repro.figures import ARTIFACTS
from repro.workloads import ExponentialWorkload, PerTaskSampling


def bold(**overrides):
    """A BOLD experiment (Figures 5-8) produced with ``overrides``."""
    return ARTIFACTS["fig5"].produce("quick", **overrides)


def value(data, label, key):
    """One series' value at sweep key ``key``."""
    return data.series[label][list(data.keys).index(key)]


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
        data = bold(
            n=256, pe_counts=(2, 8), techniques=("STAT", "SS", "FAC2"),
            runs=3, simulator="direct", seed=1,
        )
        assert set(data.series) == {"STAT", "SS", "FAC2"}
        assert all(len(v) == 2 for v in data.series.values())
        assert value(data, "SS", 2) > value(data, "FAC2", 2)

    def test_ss_wasted_time_dominated_by_overhead(self):
        # SS's POST_HOC wasted time is ~ h*n/p plus a small idle term.
        data = bold(
            n=256, pe_counts=(2,), techniques=("SS",), runs=3,
            simulator="direct", seed=1,
        )
        assert value(data, "SS", 2) == pytest.approx(64.0, rel=0.2)

    def test_msg_and_direct_agree(self):
        kwargs = dict(
            n=256, pe_counts=(4,), techniques=("FAC2",), runs=10, seed=5
        )
        msg = bold(simulator="msg", **kwargs)
        direct = bold(simulator="direct", **kwargs)
        m, d = value(msg, "FAC2", 4), value(direct, "FAC2", 4)
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
        data = bold(
            n=1024, pe_counts=BOLD_PE_COUNTS,
            techniques=("STAT", "FAC2"), runs=5, simulator="direct", seed=2,
        )
        block = data.text.split(
            "Discrepancy vs reference [s] (positive = slower):\n"
        )[1].split("\nRelative")[0]
        rows = dict(line.split(":") for line in block.splitlines())
        assert {t.strip() for t in rows} == {"STAT", "FAC2"}
        for cells in rows.values():
            assert len(cells.split()) == len(BOLD_PE_COUNTS)


class TestGenerateBoldReference:
    def test_regenerated_cell_is_the_per_task_direct_sweep(self, tmp_path):
        from repro.experiments import published

        path = tmp_path / "reference.json"
        document = generate_bold_reference(
            path, task_counts=(1024,), runs_per_n={1024: 2}, verbose=False
        )
        assert json.loads(path.read_text()) == document
        cell = document["experiments"]["1024"]
        assert cell["runs"] == 2
        assert set(cell["values"]) == set(BOLD_TECHNIQUES)
        task = RunTask(
            technique="fac2",
            params=scheduling_params(1024, 8),
            workload=PerTaskSampling(ExponentialWorkload(1.0)),
            simulator="direct",
        )
        results = run_replicated(
            task, 2,
            campaign_seed=_cell_seed(published.BOLD_REFERENCE_SEED,
                                     1024, 8, "FAC2"),
        )
        wasted = [r.average_wasted_time for r in results]
        i = BOLD_PE_COUNTS.index(8)
        assert cell["values"]["FAC2"][i] == sum(wasted) / 2
        assert cell["std"]["FAC2"][i] == pytest.approx(
            abs(wasted[0] - wasted[1]) / 2 ** 0.5
        )


def fac_outliers(**overrides):
    """Figure 9's study produced with ``overrides``: (stats, per-run)."""
    data = ARTIFACTS["fig9"].produce("quick", **overrides)
    return dict(zip(data.keys, data.series["FAC"])), data.extra["per_run"]


class TestFacOutlierStudy:
    def test_small_study(self):
        study, per_run = fac_outliers(
            n=8192, p=2, runs=30, threshold=60.0, simulator="direct", seed=4
        )
        assert len(per_run) == 30
        assert study["mean"] > 0
        assert 0 <= study["num_above"] <= 30
        assert study["mean_excluding"] <= max(per_run)

    def test_heavy_tail_exists_at_paper_cell(self):
        """Some runs are far above the median (the Figure 9 phenomenon)."""
        _, per_run = fac_outliers(
            n=65536, p=2, runs=40, threshold=200.0, simulator="direct",
            seed=7,
        )
        import statistics

        med = statistics.median(per_run)
        assert max(per_run) > 3 * med


def tss(experiment, mode="quick", **overrides):
    """Figure 3 (experiment 1) or 4 (experiment 2) with ``overrides``."""
    artifact = {1: "fig3", 2: "fig4"}[experiment]
    return ARTIFACTS[artifact].produce(mode, **overrides)


class TestTssExperiment:
    def test_small_sweep(self):
        data = tss(1, pe_counts=(2, 8, 16))
        assert set(data.series) == {
            "SS", "CSS", "GSS(1)", "GSS(80)", "TSS",
        }
        for curve in data.series.values():
            assert len(curve) == 3
            assert all(s > 0 for s in curve)

    def test_css_and_tss_near_ideal(self):
        data = tss(1, pe_counts=(16,))
        assert data.series["CSS"][0] > 14.0
        assert data.series["TSS"][0] > 14.0

    def test_metrics_triple_available(self):
        data = tss(2, pe_counts=(8,))
        overhead = data.extra["overheads"]["TSS"][0]
        imbalance = data.extra["imbalances"]["TSS"][0]
        total = data.series["TSS"][0] + overhead + imbalance
        assert total == pytest.approx(8.0, rel=0.05)
        assert overhead >= 0
        assert imbalance >= 0

    def test_invalid_experiment_rejected(self):
        with pytest.raises(ValueError):
            ARTIFACTS["fig3"].produce("quick", experiment=3)

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

        data = tss(1, "full")
        assert data.keys == TSS_PE_COUNTS
        verdicts = data.extra["reproduced"]
        assert not verdicts["SS"]
        assert verdicts["CSS"]
        assert verdicts["TSS"]
