"""The brackets around a GC pass, on both drivers.

Every Cleaner pass, fold and forced recycle runs inside
``TranslationLayer._leveler_suspended`` (SWL-Procedure waits until the
driver is quiescent) and ``_gc_traced`` (``GcStart``/``GcEnd``).  These
tests hold the suspension bracket to its contract: whatever ends a pass
— a power cut, any exception — the leveler is resumed; nested
brackets resume at the outermost exit only; and a trigger deferred
inside them acts exactly once, there.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import SWLConfig
from repro.fault.injector import FaultInjector
from repro.fault.plan import FaultPlan
from repro.flash.chip import NandFlash
from repro.flash.errors import PowerLossError
from repro.flash.geometry import CellType, FlashGeometry
from repro.flash.mtd import MtdDevice
from repro.ftl.factory import build_stack, make_layer
from tests.test_leveler_contract import Proxy

GEOMETRY = FlashGeometry(
    num_blocks=16, pages_per_block=8, page_size=2048,
    endurance=10**6, cell_type=CellType.MLC2, name="brackets",
)
DRIVERS = pytest.mark.parametrize("driver", ["ftl", "nftl"])
#: The method each driver runs one bracketed pass in.
PASS = {"ftl": "_relocate_and_erase", "nftl": "_fold"}
#: A threshold low enough that SWL-Procedure fires within a few folds.
SWL = SWLConfig(threshold=2, k=0)


def hammer(stack, seed: int, writes: int) -> None:
    """Single-page rewrites, 90 % of them on the first eighth of the space."""
    rng = random.Random(seed)
    pages = stack.num_logical_pages
    for _ in range(writes):
        hot = rng.random() < 0.9
        stack.write_pages((rng.randrange(pages // 8 if hot else pages),))


def track_pass(layer, name: str) -> list[int]:
    """Wrap ``layer.<name>``; the returned cell holds its current depth."""
    depth = [0]
    inner = getattr(layer, name)

    def tracked(*args, **kwargs):
        depth[0] += 1
        try:
            return inner(*args, **kwargs)
        finally:
            depth[0] -= 1

    setattr(layer, name, tracked)
    return depth


@DRIVERS
def test_a_power_cut_inside_a_pass_resumes_the_leveler(driver):
    cut_mid_pass = 0
    for at in range(200, 1400, 37):
        injector = FaultInjector(FaultPlan(seed=1, power_loss_at=(at,)))
        stack = build_stack(GEOMETRY, driver, SWL, injector=injector)
        depth = track_pass(stack.layer, PASS[driver])
        seen = []
        power_loss = injector._power_loss
        injector._power_loss = lambda: (
            seen.append((depth[0], stack.leveler.suspended)), power_loss()
        )[1]
        with pytest.raises(PowerLossError):
            hammer(stack, seed=at, writes=100_000)
        (in_pass, suspended), = seen
        if in_pass:
            cut_mid_pass += 1
            assert suspended, f"power cut at op {at}: pass ran unsuspended"
        assert not stack.leveler.suspended, f"power cut at op {at}"
    assert cut_mid_pass >= 5  # the sweep really lands inside passes


@DRIVERS
def test_nested_brackets_resume_once_and_replay_the_trigger_once(driver):
    stack = build_stack(GEOMETRY, driver, SWL)
    layer, leveler = stack.layer, stack.leveler
    acted = []
    act = leveler._dispatch_trigger
    leveler._dispatch_trigger = lambda: (acted.append(leveler.suspended), act())
    with layer._leveler_suspended():
        with layer._leveler_suspended():
            for _ in range(4):  # SWL checks T on every erase: it fires
                leveler.on_block_erased(0)
            assert leveler._deferred_check
        assert leveler.suspended and acted == []
        for _ in range(4):
            leveler.on_block_erased(0)
        assert acted == []
    assert not leveler.suspended
    assert acted == [False]  # replayed exactly once, after the last resume
    assert not leveler._deferred_check


@DRIVERS
def test_no_leveler_means_the_shared_no_op_bracket(driver):
    layer = build_stack(GEOMETRY, driver).layer
    assert layer._leveler_suspended() is layer._gc_traced("swl", 0)
    with layer._leveler_suspended(), layer._gc_traced("swl", 0):
        pass


@DRIVERS
def test_the_bracket_drives_a_proxied_leveler(driver):
    """``with`` looks dunders up on the type, so the bracket must not be
    the leveler: a forwarding proxy has no ``__enter__`` of its own."""
    layer = make_layer(driver, MtdDevice(NandFlash(GEOMETRY)))
    mechanism = SWL.build(GEOMETRY.num_blocks, layer, rng=random.Random(1))
    calls = []
    leveler = Proxy(mechanism, {
        "suspend": lambda: (calls.append("suspend"), mechanism.suspend()),
        "resume": lambda: (calls.append("resume"), mechanism.resume()),
    })
    layer.attach_leveler(leveler)
    with pytest.raises(KeyError):
        with layer._leveler_suspended():
            assert mechanism.suspended
            raise KeyError("inside the pass")
    assert calls == ["suspend", "resume"] and not mechanism.suspended
