"""Tests for trace files and seed management."""

from __future__ import annotations

import numpy as np

from repro.workloads import load_trace, load_trace_workload, make_rng, save_trace


class TestTraceFiles:
    def test_text_roundtrip(self, tmp_path):
        times = np.array([0.5, 1.25, 2.0])
        path = tmp_path / "trace.txt"
        save_trace(path, times, comment="unit test\nsecond line")
        back = load_trace(path)
        assert back.tolist() == times.tolist()

    def test_npy_roundtrip(self, tmp_path):
        times = np.linspace(0.1, 1.0, 17)
        path = tmp_path / "trace.npy"
        save_trace(path, times)
        assert np.allclose(load_trace(path), times)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("# header\n\n1.5\n# mid comment\n2.5\n")
        assert load_trace(path).tolist() == [1.5, 2.5]

    def test_load_trace_workload(self, tmp_path):
        path = tmp_path / "t.txt"
        save_trace(path, np.array([1.0, 2.0]))
        w = load_trace_workload(path)
        assert w.mean == 1.5

    def test_text_roundtrip_preserves_full_precision(self, tmp_path):
        times = np.random.default_rng(0).exponential(1.0, 10)
        path = tmp_path / "t.txt"
        save_trace(path, times)
        assert load_trace(path).tolist() == times.tolist()


class TestSeeds:
    def test_make_rng_deterministic(self):
        assert make_rng(7).random() == make_rng(7).random()

