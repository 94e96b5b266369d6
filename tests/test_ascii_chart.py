"""Tests for the ASCII chart helpers."""

import pytest

from repro.telemetry.ascii_chart import line_chart


class TestLineChart:
    def test_extremes_marked(self):
        chart = line_chart({"s": [(0.0, 1.0), (1.0, 2.0)]},
                           width=20, height=6)
        lines = chart.splitlines()
        assert "*" in lines[0]        # max y at the top row
        assert "*" in lines[5]        # min y at the bottom row

    def test_axis_labels_present(self):
        chart = line_chart({"s": [(0.0, 1.0), (1.0, 2.0)]},
                           x_label="util", y_label="ns")
        assert "x: util" in chart
        assert "y: ns" in chart

    def test_multiple_series_get_distinct_markers(self):
        chart = line_chart({"a": [(0, 0), (1, 1)],
                            "b": [(0, 1), (1, 0)]}, width=20, height=6)
        assert "*" in chart
        assert "+" in chart
        assert "* a" in chart
        assert "+ b" in chart

    def test_y_range_printed(self):
        chart = line_chart({"s": [(0.0, 90.0), (1.0, 480.0)]})
        assert "480" in chart
        assert "90" in chart

    def test_flat_series_does_not_crash(self):
        assert line_chart({"s": [(0.0, 5.0), (1.0, 5.0)]})

    def test_validation(self):
        with pytest.raises(ValueError):
            line_chart({})
        with pytest.raises(ValueError):
            line_chart({"s": []})
        with pytest.raises(ValueError):
            line_chart({"s": [(0, 0)]}, width=2)


class TestCLIChartFlag:
    def test_latency_curve_chart(self, capsys):
        from repro.cli import main
        assert main(["latency-curve", "--points", "3", "--hops", "50",
                     "--chart"]) == 0
        out = capsys.readouterr().out
        assert "HW on" in out
        assert "load-to-use ns" in out
