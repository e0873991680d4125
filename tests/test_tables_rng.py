"""Tests for the table renderer and the RNG plumbing."""

from __future__ import annotations

import pytest

from repro.util.rng import DEFAULT_SEED, make_rng, spawn_rng
from repro.util.tables import format_table


class TestFormatTable:
    def test_basic_layout(self):
        text = format_table(["name", "value"], [["a", 1], ["bb", 22]])
        lines = text.splitlines()
        assert lines[0].startswith("+")
        assert "name" in lines[1]
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_title(self):
        text = format_table(["x"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_numeric_right_alignment(self):
        text = format_table(["v"], [["1"], ["100"]])
        rows = [line for line in text.splitlines() if "|" in line][1:]
        assert rows[0] == "|   1 |"
        assert rows[1] == "| 100 |"

    def test_percent_cells_treated_numeric(self):
        text = format_table(["p"], [["5%"], ["100%"]])
        rows = [line for line in text.splitlines() if "|" in line][1:]
        assert rows[0].index("5") > rows[1].index("1")

    def test_ragged_row_rejected(self):
        with pytest.raises(ValueError, match="cells"):
            format_table(["a", "b"], [[1]])

    def test_float_formatting(self):
        text = format_table(["f"], [[1.5], [2.0]])
        assert "1.5" in text
        assert "2 " in text or "| 2 |" in text

    def test_empty_rows_ok(self):
        text = format_table(["a"], [])
        assert "a" in text


class TestRng:
    def test_default_seed_reproduces(self):
        assert make_rng().random() == make_rng(DEFAULT_SEED).random()

    def test_distinct_seeds_differ(self):
        assert make_rng(1).random() != make_rng(2).random()

    def test_spawn_streams_are_decorrelated(self):
        parent = make_rng(7)
        a = spawn_rng(parent, "a")
        parent = make_rng(7)
        b = spawn_rng(parent, "b")
        assert a.random() != b.random()

    def test_spawn_is_deterministic(self):
        first = spawn_rng(make_rng(7), "stream").random()
        second = spawn_rng(make_rng(7), "stream").random()
        assert first == second

    def test_spawn_order_independence(self):
        # Drawing from one child must not perturb a sibling created after.
        parent = make_rng(7)
        a = spawn_rng(parent, "a")
        b = spawn_rng(parent, "b")
        b_value = b.random()

        parent = make_rng(7)
        a2 = spawn_rng(parent, "a")
        _ = a2.random()  # consume from the first child this time
        b2 = spawn_rng(parent, "b")
        assert b2.random() == b_value
