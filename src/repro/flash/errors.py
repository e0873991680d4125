"""Exception hierarchy for the NAND flash simulator.

All simulator errors derive from :class:`FlashError` so that callers can
catch anything flash-related with one clause, while tests can assert on the
precise failure mode.
"""

from __future__ import annotations


class FlashError(Exception):
    """Base class for every error raised by the flash subsystem."""

    #: Pages of the batch or span in flight that completed before the
    #: error.  Every layer a batch crosses restates it in its own units
    #: (device pages of one span, host pages of one request), so whoever
    #: catches the error knows how far the work got.
    pages_done: int = 0
    #: Set by a failed live-page copy: the ``(spare_lba, payload)`` already
    #: read for the page whose program failed (see ``MtdDevice.copy_span``).
    carry: "tuple[int, bytes | None] | None" = None


class AddressError(FlashError):
    """A block or page address is outside the chip's geometry."""

    def __init__(self, message: str, *, block: int | None = None, page: int | None = None) -> None:
        super().__init__(message)
        self.block = block
        self.page = page


class ProgramError(FlashError):
    """An illegal program (write) operation.

    NAND pages cannot be overwritten in place: a programmed page must be
    erased (at block granularity) before it can be programmed again.  MLC
    parts additionally require pages within a block to be programmed in
    ascending order.  Both violations raise this error.
    """

    def __init__(self, message: str, *, block: int, page: int) -> None:
        super().__init__(message)
        self.block = block
        self.page = page


class FaultError(FlashError):
    """Base class for *injected* device faults.

    Unlike :class:`ProgramError` / :class:`AddressError` — which signal
    protocol violations (caller bugs) — a ``FaultError`` models the device
    misbehaving: transient erase failures, grown bad blocks, uncorrectable
    read errors, or power loss.  Translation layers are expected to catch
    these and recover; see :mod:`repro.fault`.
    """


class TransientEraseError(FaultError):
    """An erase pulse failed to complete; the block state is unchanged.

    Real NAND erase failures are frequently transient (charge detrapping,
    temperature): datasheets prescribe a bounded number of retries before
    the block is declared grown-bad.  The simulator leaves the block's
    pages and erase count untouched when raising this, so a retry models
    exactly one more erase attempt.
    """

    def __init__(self, message: str, *, block: int) -> None:
        super().__init__(message)
        self.block = block


class ProgramFaultError(FaultError):
    """A program operation failed; the target page holds garbage.

    The page is left in the *invalid* state (it consumed charge but its
    contents fail verification), and the block should be treated as grown
    bad: the driver re-issues the write to a fresh page and retires the
    failing block after relocating its live data.
    """

    def __init__(self, message: str, *, block: int, page: int) -> None:
        super().__init__(message)
        self.block = block
        self.page = page


class UncorrectableReadError(FaultError):
    """A page read had more bit errors than ECC can correct, after retries."""

    def __init__(self, message: str, *, block: int, page: int) -> None:
        super().__init__(message)
        self.block = block
        self.page = page


class PowerLossError(FaultError):
    """Injected power loss: the in-flight operation never takes effect.

    Raised by the fault injector at a scheduled operation ordinal.  All
    RAM state (translation tables, BET, frontiers) is conceptually lost;
    the crash-consistency harness rebuilds it from on-flash state.
    """

    def __init__(self, message: str, *, op_ordinal: int) -> None:
        super().__init__(message)
        self.op_ordinal = op_ordinal


class OutOfSpaceError(FlashError):
    """A translation layer ran out of free blocks and GC could not help.

    This indicates the logical space is too large for the physical space
    (over-provisioning too small) or a leak in block accounting — both are
    bugs in the caller's configuration, not transient conditions.
    """


class TranslationError(FlashError, ValueError):
    """An LBA is out of the logical range a translation layer or an array's
    striping policy exports (a ``ValueError`` too: it is a bad argument)."""
