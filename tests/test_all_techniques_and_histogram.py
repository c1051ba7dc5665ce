"""Tests for the ASCII histogram."""

from __future__ import annotations

from repro.experiments.report import ascii_histogram


class TestAsciiHistogram:
    def test_counts_sum_to_sample_size(self):
        values = list(range(100))
        text = ascii_histogram(values, bins=10)
        counts = [int(line.rsplit(" ", 1)[-1]) for line in text.splitlines()]
        assert sum(counts) == 100

    def test_uniform_data_roughly_even(self):
        values = [i / 100 for i in range(100)]
        text = ascii_histogram(values, bins=10)
        counts = [int(line.rsplit(" ", 1)[-1]) for line in text.splitlines()]
        assert max(counts) - min(counts) <= 1

    def test_constant_data(self):
        assert "all 5 values" in ascii_histogram([2.0] * 5)

    def test_empty(self):
        assert "empty" in ascii_histogram([])

    def test_log_scaling_keeps_small_bins_visible(self):
        # One bin with 1000, another with 1: log bars keep the small one
        # at >= 1 character.
        values = [0.0] * 1000 + [10.0]
        text = ascii_histogram(values, bins=2, log_counts=True)
        lines = text.splitlines()
        assert lines[1].count("#") >= 1

    def test_heavy_tail_shape(self):
        # FAC-p=2-like: overwhelming first bin, sparse tail.
        values = [1.0] * 500 + [100.0, 200.0, 500.0]
        text = ascii_histogram(values, bins=5)
        counts = [int(line.rsplit(" ", 1)[-1]) for line in text.splitlines()]
        # 100.0 lands in the first bin ([1, 100.8)); the tail holds 2.
        assert counts[0] == 501
        assert sum(counts[1:]) == 2
