"""Tests for the metrics package."""

from __future__ import annotations

import pytest

from repro.metrics import (
    OverheadModel,
    Summary,
    average_wasted_time,
    discrepancy,
    discrepancy_table,
    max_abs_relative_discrepancy,
    mean_excluding_above,
    relative_discrepancy,
    summarize,
    tzen_ni_metrics,
)
from repro.metrics.wasted_time import OverheadModel as OM
from repro.results import RunResult


def make_result(makespan=10.0, compute=(8.0, 9.0), num_chunks=4, h=0.5,
                total_task_time=17.0, model=OM.POST_HOC,
                extras=None) -> RunResult:
    return RunResult(
        technique="T",
        n=100,
        p=len(compute),
        h=h,
        overhead_model=model,
        makespan=makespan,
        compute_times=list(compute),
        chunks_per_worker=[num_chunks // len(compute)] * len(compute),
        num_chunks=num_chunks,
        total_task_time=total_task_time,
        extras=extras or {},
    )


class TestWastedTime:
    def test_post_hoc_formula(self):
        # idle = ((10-8) + (10-9))/2 = 1.5; overhead = 0.5*4/2 = 1.0
        value = average_wasted_time(10.0, [8.0, 9.0], 4, 0.5, OM.POST_HOC)
        assert value == pytest.approx(2.5)

    def test_in_model_variants_skip_addend(self):
        for model in (OM.PER_WORKER, OM.SERIALIZED_MASTER):
            value = average_wasted_time(10.0, [8.0, 9.0], 4, 0.5, model)
            assert value == pytest.approx(1.5)

    def test_empty_workers_rejected(self):
        with pytest.raises(ValueError):
            average_wasted_time(1.0, [], 1, 0.5, OM.POST_HOC)

    def test_model_from_name(self):
        assert OverheadModel.from_name("post-hoc") is OM.POST_HOC
        assert OverheadModel.from_name("PER_WORKER") is OM.PER_WORKER
        with pytest.raises(ValueError):
            OverheadModel.from_name("bogus")

    def test_run_result_property_consistent(self):
        r = make_result()
        assert r.average_wasted_time == pytest.approx(2.5)
        assert r.wasted_times == [2.0, 1.0]


class TestTzenNi:
    def test_triple_sums_to_p(self):
        r = make_result(makespan=10.0, compute=(8.0, 9.0), num_chunks=2,
                        h=0.5, total_task_time=17.0)
        m = tzen_ni_metrics(r)
        assert m.total == pytest.approx(2.0)

    def test_speedup_definition(self):
        r = make_result(total_task_time=17.0, makespan=10.0)
        assert tzen_ni_metrics(r).speedup == pytest.approx(1.7)

    def test_overhead_includes_wait_times_when_present(self):
        r = make_result(extras={"wait_times": [0.5, 0.5]})
        with_comm = tzen_ni_metrics(r, comm_as_overhead=True)
        without = tzen_ni_metrics(r, comm_as_overhead=False)
        assert with_comm.scheduling_overhead > without.scheduling_overhead

    def test_overhead_clamped_to_available_waste(self):
        # Huge h would exceed total idle; theta must not exceed p - r.
        r = make_result(h=100.0, num_chunks=10)
        m = tzen_ni_metrics(r)
        assert m.load_imbalance >= 0.0
        assert m.total == pytest.approx(2.0)

    def test_zero_makespan_rejected(self):
        r = make_result(makespan=0.0)
        with pytest.raises(ValueError):
            tzen_ni_metrics(r)


class TestDiscrepancy:
    def test_signed_difference(self):
        assert discrepancy(11.0, 10.0) == pytest.approx(1.0)
        assert discrepancy(9.0, 10.0) == pytest.approx(-1.0)

    def test_relative_percentage(self):
        assert relative_discrepancy(11.0, 10.0) == pytest.approx(10.0)

    def test_relative_rejects_zero_reference(self):
        with pytest.raises(ValueError):
            relative_discrepancy(1.0, 0.0)

    def test_table_construction(self):
        rows = discrepancy_table(
            {"A": [11.0, 22.0]},
            {"A": [10.0, 20.0], "B": [1.0, 2.0]},
            keys=(2, 8),
        )
        assert len(rows) == 1
        row = rows[0]
        assert row.discrepancies == pytest.approx((1.0, 2.0))
        assert row.relative_discrepancies == pytest.approx((10.0, 10.0))
        assert row.max_abs_discrepancy == pytest.approx(2.0)
        assert row.max_abs_relative_discrepancy == pytest.approx(10.0)

    def test_table_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            discrepancy_table({"A": [1.0]}, {"A": [1.0, 2.0]}, keys=(2, 8))

    def test_max_with_exclusion(self):
        rows = discrepancy_table(
            {"FAC": [50.0, 11.0], "SS": [10.5, 21.0]},
            {"FAC": [10.0, 10.0], "SS": [10.0, 20.0]},
            keys=(2, 8),
        )
        # FAC at p=2 is 400% off; excluding it the worst is 10%.
        assert max_abs_relative_discrepancy(rows) == pytest.approx(400.0)
        assert max_abs_relative_discrepancy(
            rows, exclude=[("FAC", 2)]
        ) == pytest.approx(10.0)


class TestSummary:
    def test_summarize(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s.count == 3
        assert s.mean == pytest.approx(2.0)
        assert s.std == pytest.approx(1.0)
        assert s.minimum == 1.0
        assert s.maximum == 3.0
        assert s.sem == pytest.approx(1.0 / 3**0.5)

    def test_single_value(self):
        s = summarize([5.0])
        assert s.std == 0.0
        assert s.sem == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_confidence_interval_contains_mean(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        lo, hi = s.confidence_interval()
        assert lo < s.mean < hi

    def test_mean_excluding_above(self):
        mean, excluded = mean_excluding_above([1.0, 2.0, 500.0], 400.0)
        assert mean == pytest.approx(1.5)
        assert excluded == 1

    def test_mean_excluding_everything_rejected(self):
        with pytest.raises(ValueError):
            mean_excluding_above([500.0], 400.0)


class TestRunResultProperties:
    def test_speedup_and_efficiency(self):
        r = make_result(total_task_time=16.0, makespan=10.0)
        assert r.speedup == pytest.approx(1.6)
        assert r.efficiency == pytest.approx(0.8)

    def test_zero_makespan_speedup_is_ideal(self):
        r = make_result(makespan=0.0, compute=(0.0, 0.0),
                        total_task_time=0.0)
        assert r.speedup == 2.0
