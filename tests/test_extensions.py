"""Tests for the extension studies: scalability and TSS workload shapes.

Each study runs through its registry producer (``ArtifactSpec.produce``
with overrides), the one definition of the artifact.
"""

from __future__ import annotations

import pytest

from repro.experiments.tss_experiments import (
    TSS_WORKLOAD_SHAPES,
    tss_workload,
)
from repro.figures import ARTIFACTS


def produce(artifact, **overrides):
    """``artifact``'s quick set with ``overrides`` on top."""
    return ARTIFACTS[artifact].produce("quick", **overrides)


def at(data, label, key):
    """One series' value at sweep key ``key``."""
    return data.series[label][list(data.keys).index(key)]


class TestScalingStudy:
    def test_mode_is_an_override_through_produce(self):
        """The parameter-set mode is positional-only, so the producer's
        own ``mode`` (strong or weak) overrides like any parameter."""
        from repro.figures.pipeline import produce_artifact

        spec = ARTIFACTS["scalability"]
        overrides = dict(mode="weak", techniques=("fac2",), pe_counts=(2, 4),
                         tasks_per_pe=128, runs=2)
        data = spec.produce("quick", **overrides)
        assert "n per point: [256, 512]" in data.text
        piped, _, claims = produce_artifact(spec, "quick", **overrides)
        assert piped.text == data.text
        assert claims == {}

    def test_strong_scaling_shape(self):
        data = produce(
            "scalability",
            mode="strong",
            techniques=("ss", "fac2"),
            pe_counts=(2, 8, 32),
            n_total=2048,
            runs=2,
        )
        assert data.text.startswith("strong scaling")
        assert "n per point: [2048, 2048, 2048]" in data.text
        # SS saturates under master contention at higher PE counts.
        assert data.series["ss"][-1] < data.series["fac2"][-1]

    def test_weak_scaling_tasks_grow(self):
        data = produce(
            "scalability",
            mode="weak",
            techniques=("fac2",),
            pe_counts=(2, 4),
            tasks_per_pe=128,
            runs=2,
        )
        assert "n per point: [256, 512]" in data.text

    def test_weak_scaling_holds_only_for_batched_techniques(self):
        data = produce(
            "scalability",
            mode="weak",
            techniques=("ss", "gss", "fac2"),
            pe_counts=(2, 128),
            runs=2,
        )
        # batched techniques keep their efficiency as the problem grows...
        assert data.series["fac2"][-1] > 0.8
        assert data.series["gss"][-1] > 0.8
        # ...while SS's per-task master contention never amortises
        assert data.series["ss"][-1] < 0.3

    def test_efficiency_between_zero_and_one(self):
        data = produce(
            "scalability",
            mode="strong",
            techniques=("gss",),
            pe_counts=(2, 8),
            n_total=1024,
            runs=2,
        )
        for eff in data.series["gss"]:
            assert 0.0 < eff <= 1.0 + 1e-9

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            produce("scalability", mode="diagonal")

    def test_report_renders(self):
        data = produce(
            "scalability", mode="strong", techniques=("gss",),
            pe_counts=(2, 4), n_total=512, runs=1,
        )
        assert "strong scaling" in data.text
        assert "GSS" in data.text


class TestRemoteRatioStudy:
    def test_speedup_decreases_with_ratio(self):
        data = produce("remote-ratio", ratios=(0.0, 0.1, 0.5), p=16, n=5000)
        values = data.series["TSS"]
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
        data = produce("css-sweep", k_values=(1389,), p=72)
        assert at(data, "CSS", 1389) > 65.0

    def test_extreme_k_degrade(self):
        data = produce("css-sweep", k_values=(1, 1389, 50_000), p=72)
        assert at(data, "CSS", 1) < at(data, "CSS", 1389)
        assert at(data, "CSS", 50_000) < at(data, "CSS", 1389)


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
        data = produce(
            "tss-shapes", experiment=2, shapes=("constant", "decreasing"),
            p=8,
        )
        assert at(data, "GSS(1)", "constant") > 7.0
        # GSS's first huge chunk carries the longest iterations.
        assert at(data, "GSS(1)", "decreasing") < 0.7 * 8
        assert at(data, "TSS", "decreasing") > 0.85 * 8
