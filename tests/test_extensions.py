"""Tests for the extension studies: scalability and TSS workload shapes."""

from __future__ import annotations

import pytest

from repro.experiments.scalability import (
    efficiency_report,
    run_scaling_study,
)
from repro.experiments.tss_experiments import (
    TSS_WORKLOAD_SHAPES,
    run_tss_workload_study,
    tss_workload,
)


class TestScalingStudy:
    def test_strong_scaling_shape(self):
        result = run_scaling_study(
            mode="strong",
            techniques=("ss", "fac2"),
            pe_counts=(2, 8, 32),
            n_total=2048,
            runs=2,
        )
        assert result.mode == "strong"
        assert result.tasks_at[32] == 2048
        # SS saturates under master contention at higher PE counts.
        assert result.efficiency["ss"][-1] < result.efficiency["fac2"][-1]

    def test_weak_scaling_tasks_grow(self):
        result = run_scaling_study(
            mode="weak",
            techniques=("fac2",),
            pe_counts=(2, 4),
            tasks_per_pe=128,
            runs=2,
        )
        assert result.tasks_at[2] == 256
        assert result.tasks_at[4] == 512

    def test_weak_scaling_holds_only_for_batched_techniques(self):
        result = run_scaling_study(
            mode="weak",
            techniques=("ss", "gss", "fac2"),
            pe_counts=(2, 128),
            runs=2,
        )
        # batched techniques keep their efficiency as the problem grows...
        assert result.efficiency["fac2"][-1] > 0.8
        assert result.efficiency["gss"][-1] > 0.8
        # ...while SS's per-task master contention never amortises
        assert result.efficiency["ss"][-1] < 0.3

    def test_efficiency_between_zero_and_one(self):
        result = run_scaling_study(
            mode="strong",
            techniques=("gss",),
            pe_counts=(2, 8),
            n_total=1024,
            runs=2,
        )
        for eff in result.efficiency["gss"]:
            assert 0.0 < eff <= 1.0 + 1e-9

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            run_scaling_study(mode="diagonal")

    def test_report_renders(self):
        result = run_scaling_study(
            mode="strong", techniques=("gss",), pe_counts=(2, 4),
            n_total=512, runs=1,
        )
        text = efficiency_report(result)
        assert "strong scaling" in text
        assert "GSS" in text


class TestRemoteRatioStudy:
    def test_speedup_decreases_with_ratio(self):
        from repro.experiments.tss_experiments import run_remote_ratio_study

        study = run_remote_ratio_study(
            ratios=(0.0, 0.1, 0.5), p=16, n=5000
        )
        values = list(study.values())
        assert values == sorted(values, reverse=True)
        assert values[0] > 15.0      # near ideal at 0% remote
        assert values[-1] < 0.7 * 16  # heavy degradation at 50%

    def test_slowdown_factor(self):
        from repro.experiments.tss_experiments import remote_access_slowdown

        assert remote_access_slowdown(0.0, 64) == 1.0
        assert remote_access_slowdown(0.5, 64) > remote_access_slowdown(
            0.1, 64
        )
        import pytest as _pytest

        with _pytest.raises(ValueError):
            remote_access_slowdown(1.5, 64)


class TestCssKSweep:
    def test_anchor_k_is_near_ideal(self):
        from repro.experiments.tss_experiments import run_css_k_sweep

        sweep = run_css_k_sweep(k_values=(1389,), p=72)
        assert sweep[1389] > 65.0

    def test_extreme_k_degrade(self):
        from repro.experiments.tss_experiments import run_css_k_sweep

        sweep = run_css_k_sweep(k_values=(1, 1389, 50_000), p=72)
        assert sweep[1] < sweep[1389]
        assert sweep[50_000] < sweep[1389]


class TestTssWorkloads:
    def test_all_shapes_constructible(self):
        for shape in TSS_WORKLOAD_SHAPES:
            w = tss_workload(shape, n=100, task_time=1e-3)
            assert w.mean > 0

    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            tss_workload("sawtooth", 10, 1.0)

    def test_decreasing_orientation(self):
        import numpy as np

        w = tss_workload("decreasing", 100, 1.0)
        xs = w.sample(0, 100, np.random.default_rng(0))
        assert xs[0] > xs[-1]

    def test_study_finds_gss_weakness_on_decreasing(self):
        table = run_tss_workload_study(
            2, shapes=("constant", "decreasing"), p=8
        )
        assert table["constant"]["GSS(1)"] > 7.0
        # GSS's first huge chunk carries the longest iterations.
        assert table["decreasing"]["GSS(1)"] < 0.7 * 8
        assert table["decreasing"]["TSS"] > 0.85 * 8
