"""Tests for the plain-text figure renderer."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.analysis.figures import sparkline, wear_map


class TestSparkline:
    def test_constant_series_is_flat(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_monotone_series_ascends(self):
        line = sparkline([0, 1, 2, 3])
        assert line[0] == "▁"
        assert line[-1] == "█"
        assert list(line) == sorted(line)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sparkline([])

    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=50))
    def test_length_preserved(self, values):
        assert len(sparkline(values)) == len(values)


class TestWearMap:
    def test_shape(self):
        chart = wear_map([0] * 64 + [100] * 64, columns=32)
        lines = chart.splitlines()
        assert len(lines) == 5  # 4 rows + scale line
        assert lines[0] == "▁" * 32
        assert lines[3] == "█" * 32
        assert "scale" in lines[-1]

    def test_all_zero(self):
        chart = wear_map([0, 0, 0])
        assert "▁▁▁" in chart

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            wear_map([])
