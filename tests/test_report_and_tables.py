"""Tests for text reporting and the regenerated paper tables."""

from __future__ import annotations

import pytest

from repro.experiments.report import (
    csv_text,
    format_table,
    series_table,
)
from repro.experiments.tables import (
    TABLE2_PUBLISHED,
    format_table2,
    format_table3,
    table2_matches_publication,
    table2_rows,
)


class TestFormatTable:
    def test_alignment_and_content(self):
        text = format_table(["a", "bb"], [["x", 1.5], ["yy", 22.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "1.50" in text
        assert "22.25" in text

    def test_custom_float_format(self):
        text = format_table(["v"], [[1.23456]], float_fmt="{:.4f}")
        assert "1.2346" in text


class TestSeriesTable:
    def test_rows_per_technique(self):
        text = series_table({"SS": [1.0, 2.0]}, keys=(2, 8))
        assert "SS" in text
        assert "2.00" in text

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            series_table({"SS": [1.0]}, keys=(2, 8))


class TestCsv:
    def test_csv_text(self):
        text = csv_text({"SS": [1.0, 2.0]}, keys=(2, 8))
        assert text == "technique,2,8\r\nSS,1.0,2.0\r\n"


class TestTable2:
    def test_matches_publication_exactly(self):
        assert all(table2_matches_publication().values())

    def test_row_structure(self):
        rows = table2_rows()
        assert [r[0] for r in rows] == list(TABLE2_PUBLISHED)
        # STAT row: X at p and n only.
        stat = rows[0]
        assert stat[1] == "X" and stat[2] == "X"
        assert all(c == "" for c in stat[3:])

    def test_ss_requires_nothing(self):
        ss = table2_rows()[1]
        assert all(c == "" for c in ss[1:])

    def test_formatted_output(self):
        text = format_table2()
        assert "DLS" in text
        assert "BOLD" in text
        assert "sigma" in text


class TestTable3:
    def test_lists_all_task_counts(self):
        text = format_table3()
        for n in ("1,024", "8,192", "65,536", "524,288"):
            assert n in text
        assert "Figure 5" in text and "Figure 8" in text
