"""Convenience constructors wiring chip + MTD + driver + SW Leveler.

Experiments build the same stack over and over; :func:`build_stack`
assembles it in one call from a geometry, a driver name, and a
:class:`~repro.core.policies.LevelerSpec`.

This module also defines the :class:`StorageBackend` protocol — the
surface the simulation engine drives.  A :class:`StorageStack` is the
1-channel backend; :class:`~repro.array.DeviceArray` implements the same
protocol over N channel shards, and
:meth:`~repro.sim.experiment.ExperimentSpec.build` picks between them
from a channel count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable, Protocol, Sequence, runtime_checkable

from repro.core.leveler import WearLeveler
from repro.core.policies import LevelerSpec
from repro.flash.chip import FirstFailure, NandFlash
from repro.flash.errors import FlashError
from repro.flash.geometry import FlashGeometry
from repro.flash.mtd import MtdDevice
from repro.ftl.base import DEFAULT_OP_RATIO, TranslationLayer
from repro.ftl.nftl import NFTL
from repro.ftl.page_mapping import PageMappingFTL
from repro.obs.heatmap import WearHeatmap

if TYPE_CHECKING:
    from repro.fault.injector import FaultInjector
    from repro.obs.bus import BusLike
    # Annotation-only: importing repro.sim.metrics at runtime would
    # initialize the repro.sim package, whose engine imports this module
    # (annotations stay lazy via `from __future__ import annotations`).
    from repro.sim.metrics import EraseDistribution

_DRIVERS: dict[str, type[TranslationLayer]] = {
    "ftl": PageMappingFTL,
    "nftl": NFTL,
}


def driver_names() -> list[str]:
    """Names accepted by :func:`make_layer` (``ftl``, ``nftl``)."""
    return sorted(_DRIVERS)


def make_layer(
    name: str,
    mtd: MtdDevice,
    *,
    op_ratio: float = DEFAULT_OP_RATIO,
    alloc_policy: str = "lifo",
) -> TranslationLayer:
    """Instantiate a translation layer by name over an MTD device."""
    try:
        cls = _DRIVERS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown translation layer {name!r}; choose from {driver_names()}"
        ) from None
    return cls(mtd, op_ratio=op_ratio, alloc_policy=alloc_policy)


@runtime_checkable
class StorageBackend(Protocol):
    """What the simulation engine needs from a storage system.

    Implemented by :class:`StorageStack` (one channel) and by
    :class:`~repro.array.DeviceArray` (N striped channels), so the engine,
    runners, and reporting never depend on a concrete topology.  Methods
    that aggregate (``layer_stats``, ``total_erases``, ...) sum over every
    shard of the backend; per-shard breakdowns come from
    :meth:`shard_erase_distributions`.
    """

    @property
    def name(self) -> str: ...

    @property
    def num_shards(self) -> int: ...

    @property
    def sectors_per_page(self) -> int: ...

    @property
    def num_logical_pages(self) -> int: ...

    def write_pages(self, lpns: Sequence[int]) -> int:
        """Write each page in order; returns the pages written.

        An out-of-range page raises ``TranslationError`` (a ``FlashError``):
        a stack has applied the in-range prefix, ``pages_done`` pages; an
        array validates the whole span first and has applied nothing.
        """

    def read_pages(self, lpns: Sequence[int]) -> int:
        """Read each page in order; errors as for :meth:`write_pages`."""

    def on_request(self, now: float) -> None: ...

    @property
    def first_failure(self) -> FirstFailure | None: ...

    @property
    def erase_counts(self) -> list[int]: ...

    def erase_distribution(self) -> EraseDistribution: ...

    def shard_erase_distributions(self) -> list[EraseDistribution]: ...

    def wear_heatmap(self, ts: float, bins: int = 64) -> WearHeatmap: ...

    def total_erases(self) -> int: ...

    def total_programs(self) -> int: ...

    @property
    def busy_time(self) -> float: ...

    def shard_busy_times(self) -> list[float]: ...

    def layer_stats(self) -> dict[str, int]: ...

    def swl_stats(self) -> dict[str, int]: ...

    def fault_stats(self) -> dict[str, int]: ...


def _each_page(page_op: Callable[[int], object], lpns: Sequence[int]) -> int:
    """Apply ``page_op`` to each page in order; returns the pages done.

    The host entry of a stack whose leveler intercepts writes, and the
    write entry of a driver that places page by page.  Any flash error
    (power loss, out-of-range page, full device) aborts a batch
    mid-flight; the engine still reports the partial request, so the
    completed page count rides on the exception (``pages_done``).
    """
    done = 0
    try:
        for lpn in lpns:
            page_op(lpn)
            done += 1
    except FlashError as exc:
        # A page op is one host page: whatever count the failing op left
        # on the exception is device pages (an NFTL fold's span), not ours.
        exc.pages_done = done
        raise
    return done


@dataclass
class StorageStack:
    """A fully wired flash storage system (paper Figure 1, below the VFS).

    Also the 1-channel :class:`StorageBackend`: the simulation engine
    drives it through the protocol methods below, which a
    :class:`~repro.array.DeviceArray` reimplements across shards.
    """

    flash: NandFlash
    mtd: MtdDevice
    layer: TranslationLayer
    leveler: WearLeveler | None
    #: ``write_pages(lpns) -> pages`` / ``read_pages(lpns) -> pages``: apply
    #: each logical page in order.  Resolved once per stack, so the hot
    #: paths are one call with no wrapper frame and no per-request branch.
    write_pages: Callable[[Sequence[int]], int] = field(
        init=False, repr=False, compare=False)
    read_pages: Callable[[Sequence[int]], int] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # A write-intercepting leveler (the cache-based wear avoider) sits
        # between the host and the translation layer: each page goes
        # through its ``host_write``, which decides whether flash is
        # touched at all.  Otherwise the driver takes whole read batches,
        # and whole write batches unless it places page by page (NFTL).
        layer, leveler = self.layer, self.leveler
        if leveler is not None and leveler.intercepts_writes:
            self.write_pages = partial(
                _each_page, partial(leveler.host_write, layer))
            self.read_pages = partial(
                _each_page, partial(leveler.host_read, layer))
        else:
            self.write_pages = layer.write_pages or partial(
                _each_page, layer.write)
            self.read_pages = layer.read_pages

    @property
    def name(self) -> str:
        label = self.layer.name
        if self.leveler is not None:
            label += f"+{self.leveler.label}"
        return label

    # ------------------------------------------------------------------
    # StorageBackend protocol
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return 1

    @property
    def sectors_per_page(self) -> int:
        return self.mtd.geometry.sectors_per_page

    @property
    def num_logical_pages(self) -> int:
        return self.layer.num_logical_pages

    def on_request(self, now: float) -> None:
        if self.leveler is not None:
            self.leveler.on_request(now)

    @property
    def first_failure(self) -> FirstFailure | None:
        return self.flash.first_failure

    @property
    def erase_counts(self) -> list[int]:
        return self.flash.erase_counts

    def erase_distribution(self) -> EraseDistribution:
        """O(1) wear summary from the chip's incremental accumulator."""
        return self.flash.wear.distribution()

    def shard_erase_distributions(self) -> list[EraseDistribution]:
        return [self.flash.wear.distribution()]

    def wear_heatmap(self, ts: float, bins: int = 64) -> WearHeatmap:
        """O(bins) heatmap snapshot from incrementally maintained bin sums.

        The first call (or a ``bins`` change) pays one O(num_blocks)
        rebuild via :meth:`~repro.sim.metrics.WearAccumulator.ensure_bins`;
        every later snapshot reads the live sums.
        """
        wear = self.flash.wear
        num_blocks = self.flash.geometry.num_blocks
        width = max(1, -(-num_blocks // bins))
        wear.ensure_bins(width, self.flash.erase_counts)
        return WearHeatmap.from_bin_sums(
            ts,
            num_blocks=num_blocks,
            bin_width=width,
            bin_sums=wear.bin_sums,
            min_count=wear.minimum,
            max_count=wear.maximum,
            total_erases=wear.total,
        )

    def total_erases(self) -> int:
        return self.flash.total_erases()

    def total_programs(self) -> int:
        """Physical page programs — host writes plus GC/SWL live copies.

        Dividing by the host-written page count gives the exact write
        amplification factor; :mod:`repro.endurance` relies on the
        identity ``total_programs == pages_written + live_page_copies``.
        """
        return self.flash.counters.programs

    @property
    def busy_time(self) -> float:
        return self.mtd.busy_time

    def shard_busy_times(self) -> list[float]:
        """Accumulated busy time per channel — one entry for one stack.

        The service engine diffs this around :meth:`write_pages` /
        :meth:`read_pages` to attribute each request's service time
        (including any GC or SWL work it triggered) to the channels that
        performed it.
        """
        return [self.mtd.busy_time]

    def layer_stats(self) -> dict[str, int]:
        return self.layer.stats.as_dict()

    def swl_stats(self) -> dict[str, int]:
        return self.leveler.stats.as_dict() if self.leveler else {}

    def fault_stats(self) -> dict[str, int]:
        injector = self.flash.injector
        return injector.stats.as_dict() if injector is not None else {}

    # ------------------------------------------------------------------
    # Checkpointing (see repro.ckpt)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict[str, object]:
        """Compose the snapshots of every component in the stack.

        Wiring (erase listeners, bus hookups, the leveler<->layer
        attachment, the allocator's shared erase-count list) is never
        serialized: a restore target is a freshly *built* stack whose
        wiring already exists, and only the state is overwritten.
        """
        injector = self.flash.injector
        return {
            "flash": self.flash.snapshot_state(),
            "busy_time": self.mtd.busy_time,
            "layer": self.layer.snapshot_state(),
            "leveler": (
                self.leveler.snapshot_state() if self.leveler is not None else None
            ),
            "injector": (
                injector.snapshot_state() if injector is not None else None
            ),
        }

    def restore_state(self, state: dict[str, object]) -> None:
        """Overwrite every component in place from :meth:`snapshot_state`.

        The stack must be built from the same configuration that produced
        the snapshot; component-level geometry/config checks raise
        ``ValueError`` on any mismatch (e.g. a leveler in the image but
        not in the stack).
        """
        leveler_state = state["leveler"]
        if (leveler_state is None) != (self.leveler is None):
            raise ValueError(
                "snapshot and stack disagree on the presence of a SW Leveler"
            )
        injector_state = state["injector"]
        if (injector_state is None) != (self.flash.injector is None):
            raise ValueError(
                "snapshot and stack disagree on the presence of a fault injector"
            )
        self.flash.restore_state(state["flash"])  # type: ignore[arg-type]
        self.mtd.busy_time = state["busy_time"]  # type: ignore[assignment]
        self.layer.restore_state(state["layer"])  # type: ignore[arg-type]
        if self.leveler is not None:
            self.leveler.restore_state(leveler_state)  # type: ignore[arg-type]
        if self.flash.injector is not None:
            self.flash.injector.restore_state(injector_state)  # type: ignore[arg-type]


def build_stack(
    geometry: FlashGeometry,
    driver: str = "ftl",
    swl: LevelerSpec | None = None,
    *,
    op_ratio: float = DEFAULT_OP_RATIO,
    alloc_policy: str = "lifo",
    store_data: bool = False,
    rng: random.Random | None = None,
    injector: "FaultInjector | None" = None,
    bus: "BusLike | None" = None,
) -> StorageStack:
    """Assemble chip, MTD, driver, and (optionally) the SW Leveler.

    Parameters
    ----------
    geometry:
        Chip organization.
    driver:
        ``"ftl"`` or ``"nftl"``.
    swl:
        Wear-leveling configuration — the paper's SW Leveler by default,
        or any registered mechanism by ``kind``; ``None`` or a disabled
        config yields the paper's baseline system.
    alloc_policy:
        Free-block allocation order (see :mod:`repro.ftl.allocator`).
    store_data:
        Keep page payloads (for data-integrity tests and examples).
    rng:
        Randomness for the leveler's post-reset ``findex`` re-seed.
    injector:
        Fault injector attached to the chip before the driver touches it
        (see :mod:`repro.fault`).
    bus:
        Telemetry event bus (see :mod:`repro.obs`); attached to every
        instrumented component and given the device's ``busy_time`` as
        its clock.  ``None`` (the default) builds the stack with
        telemetry fully disabled.
    """
    flash = NandFlash(geometry, store_data=store_data)
    if injector is not None:
        flash.attach_injector(injector)
    mtd = MtdDevice(flash)
    layer = make_layer(driver, mtd, op_ratio=op_ratio, alloc_policy=alloc_policy)
    leveler = None
    if swl is not None and swl.enabled:
        leveler = swl.build(geometry.num_blocks, layer, rng=rng)
        assert leveler is not None
        layer.attach_leveler(leveler)
    if bus is not None:
        mtd.attach_bus(bus)
        layer.attach_bus(bus)
        if leveler is not None:
            leveler.attach_bus(bus)  # challengers run silent (a no-op)
        if injector is not None:
            injector.attach_bus(bus)
    return StorageStack(flash=flash, mtd=mtd, layer=layer, leveler=leveler)

