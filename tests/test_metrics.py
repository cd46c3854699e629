"""Tests for metrics: series, tables."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.metrics.series import SeriesRecorder, sparkline
from repro.metrics.table import format_cell, render_table


class TestTableRender:
    def test_alignment(self):
        table = render_table(["name", "x"], [["a", 1], ["long-name", 22]])
        lines = table.split("\n")
        assert lines[0].startswith("name")
        assert all("|" in line for line in lines if "-+-" not in line)

    def test_title(self):
        table = render_table(["a"], [[1]], title="T")
        assert table.startswith("T\n=")

    def test_format_cell(self):
        assert format_cell(True) == "yes"
        assert format_cell(0.0) == "0"
        assert format_cell(1234.5) == "1,234.5"
        assert format_cell(0.123456) == "0.1235"
        assert format_cell("x") == "x"

    def test_doctest_shape(self):
        table = render_table(["a", "b"], [[1, 2.5], [30, "x"]])
        assert table == "a  | b\n---+----\n1  | 2.5\n30 | x"


class TestSeries:
    def test_add_and_render(self):
        recorder = SeriesRecorder()
        recorder.add_point(0, cache=2, imbalance=3.0)
        recorder.add_point(1, cache=4, imbalance=2.0)
        assert len(recorder) == 2
        assert recorder.series("cache") == [2, 4]
        assert recorder.x_values() == [0, 1]
        table = recorder.to_table(title="fig")
        assert "cache" in table and "imbalance" in table

    def test_mismatched_names_rejected(self):
        recorder = SeriesRecorder()
        recorder.add_point(0, a=1)
        with pytest.raises(ConfigurationError):
            recorder.add_point(1, b=2)

    def test_subsampling(self):
        recorder = SeriesRecorder()
        for i in range(10):
            recorder.add_point(i, v=i)
        table = recorder.to_table(every=5)
        assert "0" in table and "5" in table

    def test_sparkline(self):
        assert sparkline([]) == ""
        assert sparkline([1.0, 1.0]) == "▁▁"
        line = sparkline([0, 1, 2, 3], width=4)
        assert len(line) == 4
        assert line[0] == "▁" and line[-1] == "█"

    def test_sparkline_downsamples(self):
        assert len(sparkline(list(range(1000)), width=50)) == 50

    def test_to_sparklines(self):
        recorder = SeriesRecorder()
        recorder.add_point(0, v=1.0)
        recorder.add_point(1, v=5.0)
        text = recorder.to_sparklines()
        assert "v" in text and "[1..5]" in text
