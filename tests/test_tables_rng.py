"""Tests for the table renderer and the RNG plumbing."""

from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.util.rng import (
    DEFAULT_SEED,
    below,
    exponential,
    make_rng,
    shuffle,
    spawn_rng,
    uniform,
)
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


# ----------------------------------------------------------------------
# The owned samplers draw what the random.Random methods they replace draw
# ----------------------------------------------------------------------
seeds = st.integers(0, 2**64)


def twins(seed: int) -> tuple[random.Random, random.Random]:
    """Two generators in equal states."""
    return random.Random(seed), random.Random(seed)


@settings(max_examples=200, deadline=None)
@given(seed=seeds, n=st.integers(1, 2**70 - 1))
def test_below_is_randrange(seed, n):
    ours, theirs = twins(seed)
    assert [below(ours, n) for _ in range(8)] == [theirs.randrange(n) for _ in range(8)]
    assert ours.getstate() == theirs.getstate()


@settings(max_examples=100, deadline=None)
@given(seed=seeds, items=st.lists(st.integers(), min_size=1, max_size=300))
def test_below_is_choice(seed, items):
    ours, theirs = twins(seed)
    assert items[below(ours, len(items))] == theirs.choice(items)
    assert ours.getstate() == theirs.getstate()


@settings(max_examples=100, deadline=None)
@given(seed=seeds, low=st.integers(-(2**40), 2**40), width=st.integers(0, 2**40))
def test_below_is_randint(seed, low, width):
    ours, theirs = twins(seed)
    assert low + below(ours, width + 1) == theirs.randint(low, low + width)
    assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("n", [0, -1, -(2**70)])
def test_below_rejects_an_empty_range(n):
    with pytest.raises(ValueError, match="n >= 1"):
        below(make_rng(1), n)


@settings(max_examples=200, deadline=None)
@given(seed=seeds, rate=st.one_of(
    st.floats(1e-9, 1e9, allow_nan=False, allow_infinity=False),
    st.integers(1, 10**6)))
def test_exponential_is_expovariate(seed, rate):
    ours, theirs = twins(seed)
    assert [exponential(ours, rate) for _ in range(8)] == [
        theirs.expovariate(rate) for _ in range(8)]


finite = st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(seed=seeds, a=finite, b=finite)
def test_uniform_is_uniform(seed, a, b):
    ours, theirs = twins(seed)
    assert uniform(ours, a, b) == theirs.uniform(a, b)


@settings(max_examples=100, deadline=None)
@given(seed=seeds, items=st.lists(st.integers(), max_size=400))
def test_shuffle_is_shuffle(seed, items):
    ours, theirs = twins(seed)
    mine, reference = list(items), list(items)
    shuffle(ours, mine)
    theirs.shuffle(reference)
    assert mine == reference
    assert ours.getstate() == theirs.getstate()


# ----------------------------------------------------------------------
# Nothing under src/repro, benchmarks/, scripts/ or examples/ calls a
# random.py sampler
# ----------------------------------------------------------------------
ROOT = Path(__file__).resolve().parent.parent

#: The random.Random methods the library may call: the C primitives,
#: seeding and state.  Every other method is a random.py sampler.
PRIMITIVES = {"random", "getrandbits", "seed", "getstate", "setstate"}
SAMPLERS = {
    name for name, value in vars(random.Random).items()
    if callable(value) and not name.startswith("__")
} - PRIMITIVES


def sampler_uses(source: str) -> list[str]:
    """Line and name of every reference to a sampler in ``source``: an
    attribute (``rng.randrange(...)``, ``map(rng.expovariate, ...)``) or
    a ``from random import`` of one."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in SAMPLERS:
            found.append(f"{node.lineno}: .{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            found += [f"{node.lineno}: from random import {alias.name}"
                      for alias in node.names if alias.name in SAMPLERS]
    return found


def test_the_scan_sees_every_kind_of_use():
    assert {"randrange", "choice", "shuffle", "expovariate", "uniform",
            "randint", "choices", "sample"} <= SAMPLERS
    assert sampler_uses("x = rng.randrange(3)") == ["1: .randrange"]
    assert sampler_uses("gaps = map(rng.expovariate, rates)") == ["1: .expovariate"]
    assert sampler_uses("from random import choice, random") == [
        "1: from random import choice"]
    assert sampler_uses("x = rng.random() + rng.getrandbits(3)") == []


def sampler_offenders(*folders: str) -> dict[str, list[str]]:
    """:func:`sampler_uses` of every ``.py`` file under ``folders``."""
    return {
        str(path.relative_to(ROOT)): uses
        for folder in folders
        for path in sorted((ROOT / folder).rglob("*.py"))
        if (uses := sampler_uses(path.read_text()))
    }


def test_no_random_py_sampler_under_src():
    offenders = sampler_offenders("src/repro")
    assert not offenders, (
        "draw through repro.util.rng's samplers, not random.py's: "
        f"{offenders}")


def test_no_random_py_sampler_in_benchmarks_scripts_or_examples():
    """The same rule for the code that publishes and demonstrates the
    library's numbers.  ``bench/`` is not scanned: its two calls change
    only together with its pinned digest, ``bench/expected.json``."""
    offenders = sampler_offenders("benchmarks", "scripts", "examples")
    assert not offenders, (
        "draw through repro.util.rng's samplers, not random.py's: "
        f"{offenders}")
