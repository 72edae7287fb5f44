"""Unit tests for sweep helpers and table rendering."""

import pytest

from repro.errors import ConfigError
from repro.analysis.sweep import format_table, geometric_space, sweep


class TestSweep:
    def test_runs_in_order(self):
        rows = sweep([1, 2, 3], lambda v: {"v": v, "sq": v * v})
        assert rows == [{"v": 1, "sq": 1}, {"v": 2, "sq": 4}, {"v": 3, "sq": 9}]


class TestGeometricSpace:
    def test_powers(self):
        assert geometric_space(64, 1024) == [64, 128, 256, 512, 1024]

    def test_appends_stop_when_missed(self):
        assert geometric_space(64, 1000) == [64, 128, 256, 512, 1000]

    def test_custom_factor(self):
        assert geometric_space(1, 100, factor=10) == [1, 10, 100]

    def test_validation(self):
        with pytest.raises(ConfigError):
            geometric_space(0, 10)
        with pytest.raises(ConfigError):
            geometric_space(10, 5)
        with pytest.raises(ConfigError):
            geometric_space(1, 10, factor=1)


class TestFormatTable:
    def test_alignment_and_header(self):
        rows = [{"name": "a", "value": 1}, {"name": "bbbb", "value": 22}]
        text = format_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "----" in lines[1]
        assert len(lines) == 4
        # Columns align: 'value' column starts at same offset everywhere.
        offset = lines[0].index("value")
        assert lines[2][offset:].strip() == "1"

    def test_title(self):
        text = format_table([{"x": 1}], title="T1")
        assert text.splitlines()[0] == "T1"

    def test_column_selection_and_order(self):
        rows = [{"a": 1, "b": 2, "c": 3}]
        text = format_table(rows, columns=["c", "a"])
        header = text.splitlines()[0]
        assert header.index("c") < header.index("a")
        assert "b" not in header

    def test_float_formatting(self):
        text = format_table([{"x": 0.123456}])
        assert "0.123" in text

    def test_scientific_for_extremes(self):
        text = format_table([{"x": 1234567.0}])
        assert "e+" in text

    def test_empty_rows(self):
        assert format_table([]) == "(no rows)"
        assert format_table([], title="t") == "t"

    def test_missing_keys_render_empty(self):
        text = format_table([{"a": 1}, {"a": 2, "b": 3}], columns=["a", "b"])
        assert text  # no crash; second row holds the value
        assert "3" in text
