"""Cross-cutting property tests on the assembled storage stack."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.config import SWLConfig
from repro.flash.chip import PAGE_VALID
from repro.flash.geometry import FlashGeometry
from repro.ftl.factory import build_stack
from repro.sim.engine import Simulator
from repro.traces.model import Op, Request


def tiny_geometry():
    return FlashGeometry(16, 4, 512, 5_000)


@settings(max_examples=25, deadline=None)
@given(
    writes=st.lists(st.integers(0, 10_000), max_size=300),
    driver=st.sampled_from(["ftl", "nftl"]),
    use_swl=st.booleans(),
)
def test_valid_pages_equal_distinct_lpns(writes, driver, use_swl):
    """Exactly one valid flash page exists per written logical page,
    regardless of driver, leveler, or garbage-collection history."""
    stack = build_stack(
        tiny_geometry(),
        driver,
        SWLConfig(threshold=3, k=0) if use_swl else None,
    )
    layer = stack.layer
    distinct = set()
    for raw in writes:
        lpn = raw % layer.num_logical_pages
        layer.write(lpn)
        distinct.add(lpn)
    flash = stack.flash
    valid = sum(
        flash.count_pages(block, PAGE_VALID)
        for block in range(flash.geometry.num_blocks)
    )
    assert valid == len(distinct)


@settings(max_examples=25, deadline=None)
@given(
    writes=st.lists(st.integers(0, 10_000), max_size=300),
    driver=st.sampled_from(["ftl", "nftl"]),
)
def test_erase_accounting_matches_chip(writes, driver):
    """The BET's ecnt over all intervals equals the chip's erase count."""
    stack = build_stack(tiny_geometry(), driver, SWLConfig(threshold=4, k=0))
    layer = stack.layer
    for raw in writes:
        layer.write(raw % layer.num_logical_pages)
    leveler = stack.leveler
    # ecnt resets each interval; intervals * <=size erases reconcile via:
    assert leveler.bet.ecnt <= stack.flash.total_erases()
    assert stack.flash.total_erases() == stack.mtd.counters.erases


@settings(max_examples=20, deadline=None)
@given(
    times=st.lists(st.floats(0, 1e6, allow_nan=False), max_size=100),
)
def test_simulator_clock_never_regresses(times):
    stack = build_stack(tiny_geometry(), "ftl")
    simulator = Simulator(stack)
    last = 0.0
    for time in times:
        simulator.apply(Request(time, Op.WRITE, 0, 1))
        assert simulator.clock >= last
        last = simulator.clock


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 50))
def test_same_seed_same_simulation(seed):
    """Whole-stack determinism: identical seeds give identical wear."""
    from repro.sim.experiment import (
        ExperimentSpec,
        run_until_first_failure,
        workload_params_for,
    )
    from repro.traces.generator import MobilePCWorkload

    geometry = FlashGeometry(24, 8, 2048, 40, name="prop")
    spec = ExperimentSpec("nftl", geometry, SWLConfig(threshold=3), seed=seed)
    params = workload_params_for(spec, duration=1800.0, seed=seed)
    workload = MobilePCWorkload(params)
    trace = workload.requests()
    warmup = workload.prefill_requests()
    first = run_until_first_failure(spec, trace, warmup=warmup)
    second = run_until_first_failure(spec, trace, warmup=warmup)
    assert first.total_erases == second.total_erases
    assert first.first_failure_time == second.first_failure_time
    assert first.live_page_copies == second.live_page_copies
