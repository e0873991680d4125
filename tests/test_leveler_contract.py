"""The driver-boundary contract, once per leveler kind.

:class:`repro.core.leveler.WearLeveler` owns suspension, the deferred
trigger, the request clock and the snapshot envelope for every
mechanism; these tests hold each registered kind to that contract on a
1-channel stack and on a 4-channel array, both built through
``ExperimentSpec.build``.  The last one replays with the leveler and the
driver each behind an attribute-forwarding proxy — how ``bench/tracing``
holds them — so wiring that inspects a leveler's type instead of reading
its attributes fails here, not only in the benchmark.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace

import pytest

from repro.array.coordinator import WearCoordinator
from repro.array.device import DeviceArray
from repro.array.striping import make_striping
from repro.ckpt.image import encode_payload
from repro.core.alternatives import CacheAvoidLeveler
from repro.core.policies import LevelerSpec, leveler_kinds
from repro.flash.chip import NandFlash
from repro.flash.geometry import CellType, FlashGeometry
from repro.flash.mtd import MtdDevice
from repro.ftl.factory import StorageStack, make_layer
from repro.sim.experiment import ExperimentSpec
from repro.util.rng import make_rng, spawn_rng

GEOMETRY = FlashGeometry(
    num_blocks=32, pages_per_block=8, page_size=2048,
    endurance=10**6, cell_type=CellType.MLC2, name="contract",
)

#: Knobs low enough that every mechanism acts within a few hundred requests.
SPECS = {
    "swl": LevelerSpec(kind="swl", threshold=2, k=1),
    "dual-pool": LevelerSpec(kind="dual-pool", delta=2, check_period=4),
    "cache-avoid": LevelerSpec(kind="cache-avoid", cache_pages=8),
    "softwear": LevelerSpec(kind="softwear", period_requests=16),
}
#: One knob of each kind, changed: a snapshot must not restore across it.
CHANGED_KNOB = {
    "swl": {"threshold": 3},
    "dual-pool": {"delta": 3},
    "cache-avoid": {"cache_pages": 9},
    "softwear": {"period_requests": 17},
}
#: The counter that shows the mechanism did its work during a replay.
ACTIVITY = {
    "swl": "forced_recycles",
    "dual-pool": "swaps",
    "cache-avoid": "cache_evictions",
    "softwear": "moves",
}

KINDS = leveler_kinds()
TOPOLOGIES = pytest.mark.parametrize("channels", [1, 4])


def experiment(kind: str, channels: int, **changed) -> ExperimentSpec:
    return ExperimentSpec(
        "nftl", GEOMETRY, replace(SPECS[kind], **changed), seed=3, channels=channels
    )


def levelers(backend) -> list:
    return [shard.leveler for shard in getattr(backend, "shards", [backend])]


def drive(backend, requests: int, seed: int) -> None:
    """Hot rewrites over a fully written device, with a few reads."""
    rng = random.Random(seed)
    pages = backend.num_logical_pages
    for index in range(requests):
        backend.on_request(float(index))
        hot = rng.random() < 0.9
        backend.write_pages((rng.randrange(pages // 8 if hot else pages),))
        if index % 5 == 0:
            backend.read_pages((rng.randrange(pages),))


def prefilled(backend):
    backend.write_pages(list(range(backend.num_logical_pages)))
    return backend


def test_every_kind_is_covered():
    assert sorted(SPECS) == sorted(CHANGED_KNOB) == sorted(ACTIVITY) == KINDS


@TOPOLOGIES
@pytest.mark.parametrize("kind", KINDS)
def test_resume_without_suspend_raises(kind, channels):
    for leveler in levelers(experiment(kind, channels).build()):
        with pytest.raises(RuntimeError, match="matching"):
            leveler.resume()
        leveler.suspend()
        leveler.resume()
        with pytest.raises(RuntimeError, match="matching"):
            leveler.resume()


def fire_trigger(leveler) -> None:
    """Make the mechanism's own trigger condition come true once."""
    if leveler.kind == "softwear":
        for _ in range(leveler.period_requests):
            leveler.on_request()
    else:  # erase-driven: swl checks on every erase, dual-pool every 4th
        for _ in range(4):
            leveler.on_block_erased(0)


@TOPOLOGIES
@pytest.mark.parametrize("kind", [k for k in KINDS if k != "cache-avoid"])
def test_trigger_under_nested_suspends_acts_once_at_the_outer_resume(
    kind, channels
):
    for leveler in levelers(experiment(kind, channels).build()):
        acted = []
        act = leveler._dispatch_trigger
        leveler._dispatch_trigger = lambda: (acted.append(1), act())
        leveler.suspend()
        leveler.suspend()
        fire_trigger(leveler)
        fire_trigger(leveler)
        assert acted == [] and leveler._deferred_check and leveler.suspended
        leveler.resume()
        assert acted == [] and leveler.suspended
        leveler.resume()
        assert acted == [1]
        assert not leveler._deferred_check and not leveler.suspended
        fire_trigger(leveler)  # not suspended: acts at once
        assert len(acted) >= 2


@TOPOLOGIES
@pytest.mark.parametrize("kind", KINDS)
def test_restored_twin_continues_identically(kind, channels):
    spec = experiment(kind, channels)
    original = prefilled(spec.build())
    drive(original, 500, seed=1)
    assert original.swl_stats()[ACTIVITY[kind]] > 0
    image = json.loads(encode_payload(original.snapshot_state()))
    twin = spec.build()
    twin.restore_state(image)
    assert encode_payload(twin.snapshot_state()) == encode_payload(image)
    for backend in (original, twin):
        drive(backend, 300, seed=2)
    assert twin.swl_stats() == original.swl_stats()
    assert twin.erase_counts == original.erase_counts
    for restored, kept in zip(levelers(twin), levelers(original)):
        assert restored.clock.requests == kept.clock.requests == 800


@TOPOLOGIES
@pytest.mark.parametrize("kind", KINDS)
def test_restore_rejects_another_kind_and_a_changed_knob(kind, channels):
    backend = prefilled(experiment(kind, channels).build())
    drive(backend, 50, seed=1)
    image = levelers(backend)[0].snapshot_state()
    for other in KINDS:
        if other != kind:
            target = levelers(experiment(other, channels).build())[0]
            with pytest.raises(ValueError, match="does not match"):
                target.restore_state(image)
    changed = experiment(kind, channels, **CHANGED_KNOB[kind]).build()
    with pytest.raises(ValueError, match="does not match"):
        levelers(changed)[0].restore_state(image)
    levelers(experiment(kind, channels).build())[0].restore_state(image)


class Proxy:
    """``bench/tracing.SpanProxy``: named methods replaced, the rest forwarded."""

    def __init__(self, target, spans) -> None:
        object.__setattr__(self, "_target", target)
        for method, replacement in spans.items():
            object.__setattr__(self, method, replacement)

    def __getattr__(self, name):
        return getattr(object.__getattribute__(self, "_target"), name)

    def __setattr__(self, name, value) -> None:
        setattr(object.__getattribute__(self, "_target"), name, value)


def counted(calls: list, method):
    def call(*args):
        calls.append(method.__name__)
        return method(*args)
    return call


def proxied_backend(spec: ExperimentSpec, calls: list):
    """What ``spec.build()`` builds, leveler and driver behind proxies.

    Mirrors ``bench/tracing.build_traced_backend``: same construction
    order and RNG streams, so the replay must be bit-identical.
    """
    rng = spawn_rng(make_rng(spec.seed), "leveler")
    shards, mechanisms = [], []
    for index in range(spec.channels):
        flash = NandFlash(spec.geometry)
        mtd = MtdDevice(flash)
        driver = make_layer(
            spec.driver, mtd, op_ratio=spec.op_ratio,
            alloc_policy=spec.alloc_policy,
        )
        layer = Proxy(driver, {
            "recycle_block_range": counted(calls, driver.recycle_block_range),
        })
        mechanism = spec.swl.build(
            spec.geometry.num_blocks, layer,
            rng=rng if spec.channels == 1 else spawn_rng(rng, f"shard{index}"),
        )
        leveler = Proxy(mechanism, {
            "on_block_erased": counted(calls, mechanism.on_block_erased),
            "on_request": counted(calls, mechanism.on_request),
        })
        driver.attach_leveler(leveler)
        shards.append(
            StorageStack(flash=flash, mtd=mtd, layer=layer, leveler=leveler)
        )
        mechanisms.append(mechanism)
    if spec.channels == 1:
        return shards[0]
    coordinator = None
    if all(mechanism.supports_coordination for mechanism in mechanisms):
        coordinator = WearCoordinator(spec.swl.threshold, scope=spec.swl_scope)
        for mechanism in mechanisms:
            coordinator.attach(mechanism)
    striping = make_striping(
        spec.striping, spec.channels, shards[0].layer.num_logical_pages
    )
    return DeviceArray(shards, striping, coordinator=coordinator)


@TOPOLOGIES
@pytest.mark.parametrize("kind", KINDS)
def test_replay_behind_proxies_is_identical(kind, channels):
    spec = experiment(kind, channels)
    plain = prefilled(spec.build())
    calls: list[str] = []
    proxied = prefilled(proxied_backend(spec, calls))
    assert proxied.name == plain.name
    for backend in (plain, proxied):
        drive(backend, 500, seed=1)
    assert plain.swl_stats()[ACTIVITY[kind]] > 0
    assert proxied.swl_stats() == plain.swl_stats()
    assert proxied.erase_counts == plain.erase_counts
    assert proxied.layer_stats() == plain.layer_stats()
    # The proxies really were in the path.
    assert "on_block_erased" in calls
    assert ("recycle_block_range" in calls) == (kind != "cache-avoid")
    assert ("on_request" in calls) == (channels == 1)  # an array ticks itself


@pytest.mark.parametrize("attempt", [
    lambda: LevelerSpec(selection="bogus"),
    lambda: LevelerSpec(kind="dual-pool", delta=1.5),  # built d=1, labelled 1.5
    lambda: CacheAvoidLeveler(cache_pages=4, page_size=512).restore_state(
        CacheAvoidLeveler(cache_pages=4, page_size=4096).snapshot_state()
    ),
], ids=["selection", "fractional-delta", "snapshot-page-size"])
def test_a_config_that_cannot_hold_is_refused_where_it_is_read(attempt):
    """Each of these used to construct, and fail (or lie) only later."""
    with pytest.raises(ValueError):
        attempt()
