"""Tests for repro.utils.ascii_plot."""

from repro.utils.ascii_plot import ascii_line_plot, format_table


class TestFormatTable:
    def test_contains_headers_and_values(self):
        text = format_table([{"a": 1, "b": 2.5}, {"a": 3, "b": 4.0}])
        assert "a" in text and "b" in text
        assert "2.5000" in text

    def test_empty_rows(self):
        assert format_table([]) == "(empty table)"

    def test_explicit_column_order(self):
        text = format_table([{"x": 1, "y": 2}], columns=["y", "x"])
        header = text.splitlines()[0]
        assert header.index("y") < header.index("x")

    def test_missing_cell_rendered_empty(self):
        text = format_table([{"a": 1}, {"a": 2, "b": 3}], columns=["a", "b"])
        assert text.count("\n") == 3  # header, separator, two rows


class TestAsciiLinePlot:
    def test_contains_marker_and_legend(self):
        text = ascii_line_plot({"series": [0, 1, 2, 3, 2, 1]}, width=20, height=5)
        assert "*" in text
        assert "series" in text

    def test_multiple_series_get_distinct_markers(self):
        text = ascii_line_plot({"a": [0, 1], "b": [1, 0]}, width=10, height=4)
        assert "* = a" in text and "+ = b" in text

    def test_empty_series(self):
        assert ascii_line_plot({}) == "(no series)"

    def test_constant_series_does_not_crash(self):
        text = ascii_line_plot({"flat": [1.0, 1.0, 1.0]}, width=10, height=4)
        assert "flat" in text
