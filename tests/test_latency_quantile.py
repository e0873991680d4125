"""Property tests: histogram quantiles versus two oracles.

:meth:`Histogram.quantile` is the one estimator behind every published
percentile (service results, per channel and end to end, and the
benchmark's ``sim_p50_ms``/``sim_p99_ms``), so it must give *exactly*
what the latency-only histogram it replaced gave.
:class:`ReferenceLatencyHistogram` keeps that histogram's binning and
estimator verbatim, and the first property compares the two with ``==``.

The estimate interpolates within geometric buckets (eight per decade),
so it may differ from the exact sorted sample — but never by more than
one bucket's width (a factor of ``10^(1/8)``), and it must be monotone
in ``q``.  A rank met exactly at a bucket boundary must interpolate in
the next occupied bucket, not the empty one before it.
"""

from __future__ import annotations

import math
from bisect import bisect_left

import pytest
from hypothesis import given, settings, strategies as st

from repro.service.latency import LATENCY_BUCKET_BOUNDS, LatencyHistogram

#: One geometric bucket's width: upper bound over lower bound.
BUCKET_WIDTH = 10.0 ** (1.0 / 8.0)

samples_strategy = st.lists(
    st.floats(min_value=1e-6, max_value=9e3, allow_nan=False),
    min_size=1,
    max_size=200,
)


class ReferenceLatencyHistogram:
    """The former latency-only histogram: binning and estimator, verbatim."""

    def __init__(self) -> None:
        self.counts = [0] * (len(LATENCY_BUCKET_BOUNDS) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(LATENCY_BUCKET_BOUNDS, value)] += 1
        self.count += 1
        self.total += value
        if value > self.maximum:
            self.maximum = value
        if value < self.minimum:
            self.minimum = value

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile by interpolating within buckets.

        The estimate is clamped to the exact observed ``[min, max]``, so
        p0 and p100 (and any quantile landing in the first or final
        occupied bucket) never leave the range of latencies that actually
        happened.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count and cumulative + bucket_count >= rank:
                # An empty bucket never satisfies the rank: when the rank
                # was met exactly at the previous bucket's boundary, the
                # samples that meet it live in this, the *next occupied*
                # bucket — interpolating from an empty one would take the
                # wrong bucket's edges with a non-positive fraction.
                lower = LATENCY_BUCKET_BOUNDS[index - 1] if index else 0.0
                if index < len(LATENCY_BUCKET_BOUNDS):
                    upper = LATENCY_BUCKET_BOUNDS[index]
                else:
                    upper = self.maximum  # overflow slot: exact ceiling
                fraction = max(0.0, (rank - cumulative) / bucket_count)
                estimate = lower + (upper - lower) * fraction
                return min(max(estimate, self.minimum), self.maximum)
            cumulative += bucket_count
        return self.maximum


@settings(max_examples=200, deadline=None)
@given(
    samples=st.lists(
        # Up to past the last bound, so the overflow slot is exercised;
        # from zero, so the first bucket's interpolation from 0 is too.
        st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
        max_size=200,
    ),
    qs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
)
def test_quantile_equals_the_reference_estimator(samples, qs):
    hist, reference = LatencyHistogram(), ReferenceLatencyHistogram()
    for sample in samples:
        hist.observe(sample)
        reference.observe(sample)
    assert hist.counts == reference.counts
    assert hist.sum == reference.total
    for q in qs + [0.0, 0.5, 0.99, 1.0]:
        assert hist.quantile(q) == reference.quantile(q)


def oracle_quantile(samples: list[float], q: float) -> float:
    """Exact q-quantile at the histogram's rank convention.

    The histogram walks buckets until the cumulative count reaches
    ``rank = q * n``; the matching order statistic is the ``ceil(rank)``-th
    smallest sample (1-indexed), i.e. the first one whose cumulative
    count meets the rank.
    """
    ordered = sorted(samples)
    rank = q * len(ordered)
    index = max(0, math.ceil(rank) - 1)
    return ordered[min(index, len(ordered) - 1)]


@settings(max_examples=80, deadline=None)
@given(samples=samples_strategy, q=st.floats(0.0, 1.0))
def test_estimate_within_one_bucket_of_oracle(samples, q):
    hist = LatencyHistogram()
    for sample in samples:
        hist.observe(sample)
    estimate = hist.quantile(q)
    oracle = oracle_quantile(samples, q)
    # Same bucket => the two differ by at most one bucket width.
    assert estimate <= oracle * BUCKET_WIDTH * (1 + 1e-9)
    assert estimate * BUCKET_WIDTH * (1 + 1e-9) >= oracle


@settings(max_examples=80, deadline=None)
@given(samples=samples_strategy, qs=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=12))
def test_estimate_is_monotone_in_q(samples, qs):
    hist = LatencyHistogram()
    for sample in samples:
        hist.observe(sample)
    estimates = [hist.quantile(q) for q in sorted(qs)]
    assert all(a <= b for a, b in zip(estimates, estimates[1:]))


@settings(max_examples=80, deadline=None)
@given(samples=samples_strategy)
def test_extremes_are_exact(samples):
    """p0 and p100 clamp to the observed min and max exactly."""
    hist = LatencyHistogram()
    for sample in samples:
        hist.observe(sample)
    assert hist.quantile(0.0) == min(samples)
    assert hist.quantile(1.0) == max(samples)


def test_boundary_rank_takes_the_next_occupied_bucket():
    """Regression: a rank met exactly at a bucket boundary.

    Two samples in bucket A, two in a later bucket B: the median rank
    (q=0.5 -> rank 2) is satisfied exactly by bucket A's cumulative
    count.  The estimate must stay inside A (at or below its upper
    bound), not interpolate backwards from an empty bucket or overshoot
    into B.
    """
    hist = LatencyHistogram()
    low, high = 2e-6, 5e-3
    for sample in (low, low, high, high):
        hist.observe(sample)
    estimate = hist.quantile(0.5)
    assert estimate <= low * BUCKET_WIDTH
    assert estimate >= low / BUCKET_WIDTH
    # And just past the boundary the estimate jumps toward bucket B.
    assert hist.quantile(0.9) > estimate
    assert hist.quantile(0.9) <= high


def test_bounds_are_eight_per_decade():
    assert len(LATENCY_BUCKET_BOUNDS) == 81
    ratio = LATENCY_BUCKET_BOUNDS[1] / LATENCY_BUCKET_BOUNDS[0]
    assert ratio == pytest.approx(BUCKET_WIDTH)
