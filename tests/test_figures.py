"""Tests for the plain-text figure renderer."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.analysis.figures import sparkline


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

