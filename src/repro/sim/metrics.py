"""Evaluation metrics — the quantities of paper Section 5.

* **Endurance** (Section 5.2): the *first failure time* ("the first time to
  wear out any block") in simulated years, and the distribution of
  per-block erase counts (average, standard deviation, maximum — Table 4).
* **Extra overhead** (Section 5.3): the increased ratios of block erases
  and live-page copyings of an SWL run relative to its baseline
  (Figures 6 and 7, where the baseline sits at 100 %).

Hot-path accounting: every summary here derives from three exact integer
moments — block count ``n``, total ``sum(c)``, and second moment
``sum(c^2)`` — so the same floating-point values are produced whether the
moments come from a one-shot :meth:`EraseDistribution.from_counts` scan,
from an exact :meth:`EraseDistribution.merge` of per-shard parts, or from
a :class:`WearAccumulator` maintained incrementally at erase time (the
O(1)-per-erase path the simulation engine samples).  Integer arithmetic
is order-independent and overflow-free in Python, which is what makes the
three paths bit-identical (see DESIGN.md, hot-path accounting invariants).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

SECONDS_PER_YEAR = 365.0 * 86_400.0


def _variance(blocks: int, total: int, sum_sq: int) -> float:
    """Population variance from exact integer moments.

    ``n * sum(c^2) - total^2`` is a non-negative integer (Cauchy-Schwarz),
    so the single int/int division is the only rounding step — the result
    is the correctly-rounded variance, independent of summation order.
    """
    return (blocks * sum_sq - total * total) / (blocks * blocks)


@dataclass(frozen=True)
class EraseDistribution:
    """Summary of per-block erase counts (the columns of paper Table 4).

    ``blocks`` records how many blocks the summary covers; it is what
    makes :meth:`merge` exact (0 on legacy instances built field-by-field).
    ``sum_sq`` carries the exact second moment ``sum(c^2)`` so merging
    stays in integer arithmetic; it is ``None`` on legacy field-by-field
    instances, for which :meth:`merge` falls back to reconstructing the
    moment from ``deviation`` and ``average``.
    """

    average: float
    deviation: float
    maximum: int
    minimum: int
    total: int
    blocks: int = 0
    sum_sq: Optional[int] = None

    @classmethod
    def from_counts(cls, counts: Sequence[int]) -> "EraseDistribution":
        """One-shot O(n) scan — the property-tested reference derivation."""
        if not counts:
            raise ValueError("no erase counts")
        total = 0
        sum_sq = 0
        for count in counts:
            total += count
            sum_sq += count * count
        return cls.from_moments(
            blocks=len(counts),
            total=total,
            sum_sq=sum_sq,
            maximum=max(counts),
            minimum=min(counts),
        )

    @classmethod
    def from_moments(
        cls,
        *,
        blocks: int,
        total: int,
        sum_sq: int,
        maximum: int,
        minimum: int,
    ) -> "EraseDistribution":
        """Build from exact integer moments (the incremental hot path).

        This is the single chokepoint where integers become floats:
        :meth:`from_counts`, :meth:`merge`, and
        :meth:`WearAccumulator.distribution` all funnel through it, which
        is what guarantees the three derivations agree bit for bit.
        """
        if blocks <= 0:
            raise ValueError(f"blocks must be positive, got {blocks}")
        return cls(
            average=total / blocks,
            deviation=math.sqrt(_variance(blocks, total, sum_sq)),
            maximum=maximum,
            minimum=minimum,
            total=total,
            blocks=blocks,
            sum_sq=sum_sq,
        )

    @classmethod
    def merge(cls, parts: Sequence["EraseDistribution"]) -> "EraseDistribution":
        """Combine per-shard distributions into the array-wide one.

        Exact (not an approximation): when every part carries its integer
        second moment the merge adds integers and equals
        :meth:`from_counts` over the concatenated counts bit for bit.
        Legacy parts without ``sum_sq`` are handled by recovering the
        moment from ``E[x^2] = dev^2 + avg^2``, exact up to
        floating-point rounding.
        """
        if not parts:
            raise ValueError("no distributions to merge")
        if any(part.blocks <= 0 for part in parts):
            raise ValueError(
                "merge requires block counts; all parts must come from "
                "from_counts()"
            )
        blocks = sum(part.blocks for part in parts)
        total = sum(part.total for part in parts)
        maximum = max(part.maximum for part in parts)
        minimum = min(part.minimum for part in parts)
        if all(part.sum_sq is not None for part in parts):
            sum_sq = sum(part.sum_sq for part in parts if part.sum_sq is not None)
            return cls.from_moments(
                blocks=blocks,
                total=total,
                sum_sq=sum_sq,
                maximum=maximum,
                minimum=minimum,
            )
        average = total / blocks
        second_moment = sum(
            part.blocks * (part.deviation ** 2 + part.average ** 2)
            for part in parts
        )
        variance = max(0.0, second_moment / blocks - average ** 2)
        return cls(
            average=average,
            deviation=math.sqrt(variance),
            maximum=maximum,
            minimum=minimum,
            total=total,
            blocks=blocks,
        )

    def row(self) -> List[float]:
        """[Avg, Dev, Max] — the row layout of paper Table 4."""
        return [round(self.average), round(self.deviation), self.maximum]


class WearAccumulator:
    """O(1)-per-erase running summary of one device's erase counts.

    Replaces the O(num_blocks) ``from_counts`` rescan the engine used to
    pay on every :class:`~repro.sim.engine.WearSample`: the chip calls
    :meth:`record_erase` as part of each block erase, and
    :meth:`distribution` then snapshots average/deviation/max/min/total in
    O(1) via the same exact integer moments ``from_counts`` computes.

    Minimum tracking keeps a histogram of erase-count values (a dict of
    ``count -> blocks at that count``): an erase moves one block from
    bucket ``c`` to ``c + 1``; when the erased block drains the minimum's
    bucket the new minimum is exactly ``c + 1``, because every other block
    already sits at or above it.  The histogram holds at most
    ``max - min + 1`` entries — bounded by the value spread, not by device
    size.

    The accumulator can additionally maintain per-bin block-index sums for
    :class:`~repro.obs.heatmap.WearHeatmap` snapshots: after
    :meth:`ensure_bins` each erase also costs one list increment, and a
    heatmap snapshot costs O(bins) instead of an O(num_blocks) copy.
    """

    __slots__ = (
        "blocks", "total", "sum_sq", "maximum", "minimum",
        "_hist", "bin_width", "_bin_sums",
    )

    def __init__(self, blocks: int) -> None:
        if blocks <= 0:
            raise ValueError(f"blocks must be positive, got {blocks}")
        self.blocks = blocks
        self.total = 0
        self.sum_sq = 0
        self.maximum = 0
        self.minimum = 0
        self._hist: Dict[int, int] = {0: blocks}
        #: Blocks per heatmap bin; 0 until :meth:`ensure_bins` is called.
        self.bin_width = 0
        self._bin_sums: List[int] = []

    def record_erase(self, block: int, previous: int) -> None:
        """Account one erase of ``block`` whose count was ``previous``.

        Must be called exactly once per increment of the device's
        per-block erase counter (the chip's erase path is the single call
        site), with ``previous`` the pre-increment count.
        """
        new = previous + 1
        self.total += 1
        self.sum_sq += (previous << 1) + 1   # new^2 - previous^2
        if new > self.maximum:
            self.maximum = new
        hist = self._hist
        remaining = hist[previous] - 1
        if remaining:
            hist[previous] = remaining
        else:
            del hist[previous]
            if previous == self.minimum:
                # The last block at the old minimum just moved up; every
                # other block is already at >= previous + 1.
                self.minimum = new
        hist[new] = hist.get(new, 0) + 1
        if self.bin_width:
            self._bin_sums[block // self.bin_width] += 1

    def distribution(self) -> EraseDistribution:
        """O(1) snapshot, bit-identical to ``from_counts`` on the counts."""
        return EraseDistribution.from_moments(
            blocks=self.blocks,
            total=self.total,
            sum_sq=self.sum_sq,
            maximum=self.maximum,
            minimum=self.minimum,
        )

    def ensure_bins(self, width: int, counts: Sequence[int]) -> None:
        """Start (or re-shape) per-bin sum maintenance at ``width``.

        The first call — and any call changing the width — rebuilds the
        bin sums from ``counts`` in O(num_blocks); every later erase then
        keeps them current in O(1).  Callers pass the device's live
        per-block counts so a mid-run reconfiguration stays exact.
        """
        if width <= 0:
            raise ValueError(f"bin width must be positive, got {width}")
        if width == self.bin_width:
            return
        if len(counts) != self.blocks:
            raise ValueError(
                f"expected {self.blocks} counts, got {len(counts)}"
            )
        sums = [0] * (-(-self.blocks // width))
        for block, count in enumerate(counts):
            sums[block // width] += count
        self.bin_width = width
        self._bin_sums = sums

    @property
    def bin_sums(self) -> List[int]:
        """Per-bin erase-count sums (empty until :meth:`ensure_bins`)."""
        return self._bin_sums

    # ------------------------------------------------------------------
    # Checkpointing (see repro.ckpt)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, Any]:
        """JSON-friendly view of every mutable field.

        The histogram is emitted as sorted ``[count, blocks]`` pairs so
        the snapshot is canonical: two accumulators with equal state
        produce byte-identical encodings regardless of insertion order.
        """
        return {
            "blocks": self.blocks,
            "total": self.total,
            "sum_sq": self.sum_sq,
            "maximum": self.maximum,
            "minimum": self.minimum,
            "hist": [[count, blocks] for count, blocks in sorted(self._hist.items())],
            "bin_width": self.bin_width,
            "bin_sums": list(self._bin_sums),
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Overwrite the accumulator in place from :meth:`snapshot_state`.

        Raises ``ValueError`` when the snapshot covers a different number
        of blocks — restoring wear state onto the wrong geometry.
        """
        if state["blocks"] != self.blocks:
            raise ValueError(
                f"wear snapshot covers {state['blocks']} blocks, "
                f"accumulator has {self.blocks}"
            )
        self.total = state["total"]
        self.sum_sq = state["sum_sq"]
        self.maximum = state["maximum"]
        self.minimum = state["minimum"]
        self._hist = {count: blocks for count, blocks in state["hist"]}
        self.bin_width = state["bin_width"]
        self._bin_sums = list(state["bin_sums"])

    def __repr__(self) -> str:
        return (
            f"WearAccumulator(blocks={self.blocks}, total={self.total}, "
            f"max={self.maximum}, min={self.minimum})"
        )


def first_failure_years(sim_time: Optional[float]) -> Optional[float]:
    """Convert a simulated first-failure instant to years (Figure 5 y-axis)."""
    if sim_time is None:
        return None
    return sim_time / SECONDS_PER_YEAR


def increased_ratio(value: float, baseline: float) -> float:
    """Percentage of ``value`` relative to ``baseline`` (Figures 6-7 y-axis).

    The paper plots the baseline at 100 %; an SWL run with 2 % extra block
    erases plots at 102 %.
    """
    if baseline <= 0:
        raise ValueError(f"baseline must be positive, got {baseline}")
    return 100.0 * value / baseline


def improvement_ratio(value: float, baseline: float) -> float:
    """Relative improvement in percent (the paper's "+51.2%" style numbers)."""
    if baseline <= 0:
        raise ValueError(f"baseline must be positive, got {baseline}")
    return 100.0 * (value - baseline) / baseline


@dataclass(frozen=True)
class FaultRecoverySummary:
    """Cost of fault recovery during one run or campaign.

    Relates what the injector delivered to what the driver spent
    surviving it — the robustness analogue of the Section 5.3 overhead
    ratios.  Built from the ``fault_*`` / recovery counters collected by
    :class:`~repro.sim.engine.SimResult` or a fault campaign.
    """

    faults_injected: int         #: erase + program faults delivered
    erase_retries: int           #: extra erase attempts spent recovering
    recovery_copies: int         #: live pages moved off failing blocks
    recovery_erases: int         #: erases spent draining/condemning blocks
    blocks_retired: int          #: blocks permanently taken out of service
    total_erases: int            #: all block erases in the run

    @property
    def recovery_erase_overhead(self) -> float:
        """Recovery erases as a percentage of all erases (0 when none)."""
        if self.total_erases <= 0:
            return 0.0
        return 100.0 * self.recovery_erases / self.total_erases

    @classmethod
    def from_stats(
        cls,
        injector_stats: Dict[str, int],
        recovery_stats: Dict[str, int],
        *,
        blocks_retired: int = 0,
        total_erases: int = 0,
    ) -> "FaultRecoverySummary":
        """Assemble from injector/driver stat dicts (campaign layout)."""
        return cls(
            faults_injected=injector_stats.get("erase_faults", 0)
            + injector_stats.get("program_faults", 0),
            erase_retries=recovery_stats.get("erase_retries", 0),
            recovery_copies=recovery_stats.get("recovery_copies", 0),
            recovery_erases=recovery_stats.get("recovery_erases", 0),
            blocks_retired=blocks_retired,
            total_erases=total_erases,
        )
