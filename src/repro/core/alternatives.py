"""Alternative wear-leveling mechanisms, for comparison.

The paper positions its BET-based SW Leveler against prior art it cites
but does not evaluate: A. Ban's patent "Wear leveling of static areas in
flash memory" (US 6,732,221, reference [10]) and M-Systems' TrueFFS
mechanism [16].  Those designs track *erase counts per block* in
controller RAM and trigger a cold-block move when the wear spread exceeds
a threshold — precise, but with a RAM cost the paper's one-bit-per-set
BET undercuts by 16-32x.

Three challengers live here, all drop-ins for
:class:`~repro.core.leveler.SWLeveler` at the driver boundary because
they inherit it: :class:`~repro.core.leveler.WearLeveler` owns the
clock, suspension with its deferred trigger, the cost-attributed forced
recycle and the snapshot envelope, and each class below adds only its
mechanism — so :class:`~repro.core.policies.LevelerSpec` can build any
of them into any harness:

* :class:`DualPoolLeveler` — the classic counter-based design (equal or
  better leveling quality, at ``num_blocks * 4`` bytes of RAM versus the
  BET's ``num_blocks / 8 / 2^k``);
* :class:`CacheAvoidLeveler` — Boukhobza-style wear *avoidance*: an LRU
  write-back cache in controller RAM absorbs rewrites before they reach
  flash, trading RAM (and crash durability of the dirty cached pages)
  for fewer programs rather than evener erases;
* :class:`SoftWearLeveler` — SoftWear-style software-only leveling: no
  erase counters at all; a cyclic scrubber force-recycles the next block
  span every N host requests, rotating cold data by brute schedule at
  O(1) RAM.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any

from repro.core.leveler import WearLeveler, WearLevelingHost
from repro.core.policies import check_knobs

if TYPE_CHECKING:
    from repro.ftl.base import TranslationLayer


@dataclass
class DualPoolStats:
    """Activity counters of the counter-based leveler."""

    checks: int = 0
    swaps: int = 0             #: cold-block evictions performed
    swl_erases: int = 0        #: erases attributable to leveling
    swl_copies: int = 0        #: copies attributable to leveling

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


class DualPoolLeveler(WearLeveler):
    """Counter-based static wear leveling (Ban-patent style).

    Keeps the full per-block erase-count array (shared with the chip) and,
    every ``check_period`` erases, evicts the data sitting on the
    least-worn block whenever the wear spread ``max - min`` reaches
    ``delta`` — pulling the coldest block into the write rotation.

    Parameters
    ----------
    erase_counts:
        Live per-block erase-count list (the chip's own array).
    host:
        The translation-layer driver (``WearLevelingHost``).
    delta:
        Wear-spread trigger: act when ``max(counts) - min(counts) >= delta``.
    check_period:
        Erases between trigger evaluations (amortizes the O(n) scan).
    batch:
        Cold blocks evicted per triggered check.
    """

    kind = "dual-pool"
    _config_fields = ("kind", "delta", "check_period", "batch", "num_blocks")

    def __init__(
        self,
        erase_counts: list[int],
        host: WearLevelingHost,
        *,
        delta: int = 32,
        check_period: int = 64,
        batch: int = 1,
    ) -> None:
        check_knobs(delta=delta, check_period=check_period, batch=batch)
        super().__init__(host, DualPoolStats())
        self.erase_counts = erase_counts
        self.num_blocks = len(erase_counts)
        self.delta = delta
        self.check_period = check_period
        self.batch = batch
        self._erases_since_check = 0
        #: Blocks permanently out of service; never selected as coldest
        #: (their frozen counts would otherwise pin the cold end forever).
        self._retired: set[int] = set()

    @property
    def label(self) -> str:
        """Mechanism label for backend names, e.g. ``DP+d=32+p=64``."""
        return f"DP+d={self.delta}+p={self.check_period}"

    @property
    def ram_bytes(self) -> int:
        """Controller RAM this mechanism needs: 4 bytes per block.

        Contrast with the BET (paper Table 1): one bit per 2^k blocks.
        """
        return 4 * self.num_blocks

    def on_block_retired(self, block: int) -> None:
        """Exclude a grown-bad block from future coldest-block selection."""
        self._retired.add(block)

    def on_block_erased(self, block: int) -> None:
        """Count erases; every ``check_period``-th one is the trigger."""
        if self._in_procedure:
            return
        self._erases_since_check += 1
        if self._erases_since_check >= self.check_period:
            self._trigger_fired()

    def _dispatch_trigger(self) -> None:
        self._erases_since_check = 0
        self._maybe_level()

    def _maybe_level(self) -> None:
        self.stats.checks += 1
        counts = self.erase_counts
        excluded = set(self._retired)
        candidates = [
            block for block in range(len(counts)) if block not in excluded
        ]
        if not candidates:
            return
        hottest = max(counts[block] for block in candidates)
        if hottest - min(counts[block] for block in candidates) < self.delta:
            return
        self._in_procedure = True
        try:
            swaps = 0
            while swaps < self.batch:
                pool = [
                    block for block in candidates if block not in excluded
                ]
                if not pool:
                    return
                coldest = min(pool, key=counts.__getitem__)
                hottest = max(counts[block] for block in candidates)
                if hottest - counts[coldest] < self.delta:
                    return
                if not self._forced_recycle(range(coldest, coldest + 1)):
                    # The coldest block was free: the host promoted it
                    # into the rotation without an erase.  That is not a
                    # swap, but it must not abort the whole batch either —
                    # exclude this block for the rest of the check and
                    # try the next-coldest candidate.
                    excluded.add(coldest)
                    continue
                self.stats.swaps += 1
                swaps += 1
        finally:
            self._in_procedure = False

    def _snapshot_extra(self) -> dict[str, Any]:
        """The trigger phase and the retirements.

        The erase-count array itself belongs to the chip and rides in the
        chip's snapshot; this mechanism shares the live list, which the
        chip restores in place.
        """
        return {
            "erases_since_check": self._erases_since_check,
            "retired": sorted(self._retired),
        }

    def _restore_extra(self, state: dict[str, Any]) -> None:
        self._erases_since_check = int(state["erases_since_check"])
        self._retired = set(state["retired"])

    def __repr__(self) -> str:
        return (
            f"DualPoolLeveler(delta={self.delta}, "
            f"period={self.check_period}, ram={self.ram_bytes}B)"
        )


@dataclass
class CacheAvoidStats:
    """Activity counters of the cache-based wear-avoidance front-end."""

    hits: int = 0              #: rewrites absorbed by the cache
    misses: int = 0            #: first-seen writes inserted into the cache
    evictions: int = 0         #: LRU victims flushed to flash
    read_hits: int = 0         #: reads served from dirty cached pages
    resident: int = 0          #: dirty pages currently held in the cache

    def as_dict(self) -> dict[str, int]:
        """The counters as report columns: ``cache_hits`` ... ``cache_resident``."""
        return {f"cache_{name}": count for name, count in asdict(self).items()}


class CacheAvoidLeveler(WearLeveler):
    """Cache-based wear *avoidance* (Boukhobza-style write cache).

    Instead of moving cold data once wear skews, this mechanism prevents
    the wear: an LRU write-back cache of ``cache_pages`` logical pages in
    controller RAM absorbs rewrites of hot pages, so only LRU victims
    (and never-rewritten pages) reach flash at all.  It sits *on* the
    host write path — ``intercepts_writes`` — and the storage stack
    routes writes through :meth:`host_write` (reads through
    :meth:`host_read`, because a dirty cached page's flash copy is
    stale).

    The trade-offs the arena surfaces: controller RAM of a full page
    buffer per slot (``cache_pages * (page_size + 4)`` bytes — orders of
    magnitude above any leveler's bookkeeping), and the dirty cached
    pages are volatile, so a power loss forfeits them (wear avoidance
    buys endurance at a crash-durability cost the BET never pays).
    Erase-count feedback is not used: no notification is overridden.
    """

    kind = "cache-avoid"
    intercepts_writes = True
    _config_fields = ("kind", "capacity", "page_size")

    def __init__(
        self,
        *,
        cache_pages: int = 64,
        page_size: int = 2048,
    ) -> None:
        check_knobs(cache_pages=cache_pages, page_size=page_size)
        # No host: the stack hands the layer to host_write/host_read.
        super().__init__(None, CacheAvoidStats())  # type: ignore[arg-type]
        self.capacity = cache_pages
        self.page_size = page_size
        #: Insertion-ordered dict as the LRU set: oldest first, MRU last.
        self._cache: dict[int, None] = {}

    @property
    def label(self) -> str:
        """Mechanism label for backend names, e.g. ``CACHE+64p``."""
        return f"CACHE+{self.capacity}p"

    @property
    def ram_bytes(self) -> int:
        """Controller RAM: a page buffer plus a 4-byte tag per slot."""
        return self.capacity * (self.page_size + 4)

    # ------------------------------------------------------------------
    # Write-path interception (the mechanism itself)
    # ------------------------------------------------------------------
    def host_write(self, layer: "TranslationLayer", lpn: int) -> None:
        """Absorb one host page write, flushing an LRU victim if full.

        A rewrite of a cached page is a pure hit: no flash program
        happens at all (that is the avoided wear).  A first-seen page
        occupies a slot; once the cache is full, each insertion flushes
        the least-recently-written page to flash, so flash sees exactly
        ``misses - resident`` of the host's writes.
        """
        cache = self._cache
        if lpn in cache:
            del cache[lpn]
            cache[lpn] = None
            self.stats.hits += 1
            return
        self.stats.misses += 1
        cache[lpn] = None
        if len(cache) > self.capacity:
            victim = next(iter(cache))
            del cache[victim]
            self.stats.evictions += 1
            layer.write(victim)
        self.stats.resident = len(cache)

    def host_read(self, layer: "TranslationLayer", lpn: int) -> None:
        """Serve one host page read, preferring the dirty cached copy."""
        if lpn in self._cache:
            self.stats.read_hits += 1
            return
        layer.read(lpn)

    def _snapshot_extra(self) -> dict[str, Any]:
        """The cached logical pages, in LRU order."""
        return {"cache": list(self._cache)}

    def _restore_extra(self, state: dict[str, Any]) -> None:
        self._cache = {int(lpn): None for lpn in state["cache"]}

    def __repr__(self) -> str:
        return (
            f"CacheAvoidLeveler(capacity={self.capacity}, "
            f"resident={len(self._cache)}, ram={self.ram_bytes}B)"
        )


@dataclass
class SoftWearStats:
    """Activity counters of the software-only cyclic scrubber."""

    scrubs: int = 0            #: scheduled scrub passes performed
    moves: int = 0             #: blocks actually recycled (held data)
    skipped_free: int = 0      #: scrubbed blocks that were free already
    swl_erases: int = 0        #: erases attributable to scrubbing
    swl_copies: int = 0        #: copies attributable to scrubbing

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


class SoftWearLeveler(WearLeveler):
    """Software-only static wear leveling (SoftWear-style).

    The mechanism a host-side driver can run with *no* wear feedback
    from the device: no erase counters, no BET — every
    ``period_requests`` host requests it force-recycles the next
    ``span_blocks`` physical blocks of a cyclic cursor, so over one full
    revolution every block (cold data included) has been rewritten once.
    Controller RAM is O(1): the cursor and the request counter.

    The arena measures what that blindness costs: scrubbing is oblivious
    to actual wear, so it pays forced erases even on perfectly even
    devices, and its leveling lag is bounded by the revolution time
    (``num_blocks / span_blocks`` periods) rather than by a threshold.
    """

    kind = "softwear"
    _request_driven = True
    _config_fields = ("kind", "period_requests", "span_blocks", "num_blocks")

    def __init__(
        self,
        num_blocks: int,
        host: WearLevelingHost,
        *,
        period_requests: int = 256,
        span_blocks: int = 1,
    ) -> None:
        check_knobs(
            num_blocks=num_blocks,
            period_requests=period_requests,
            span_blocks=span_blocks,
        )
        super().__init__(host, SoftWearStats())
        self.num_blocks = num_blocks
        self.period_requests = period_requests
        self.span_blocks = span_blocks
        self.cursor = 0
        #: Bucket 0 covers requests [0, n): never scrub an idle device.
        self._last_bucket = 0
        self._retired: set[int] = set()

    @property
    def label(self) -> str:
        """Mechanism label, e.g. ``SOFTWEAR+n=256+s=1``."""
        return f"SOFTWEAR+n={self.period_requests}+s={self.span_blocks}"

    @property
    def ram_bytes(self) -> int:
        """Controller RAM: the cyclic cursor and the request counter."""
        return 8

    def on_block_retired(self, block: int) -> None:
        """Skip a grown-bad block on every future cursor pass."""
        self._retired.add(block)

    def _request_tick(self) -> None:
        """Scrub once per ``period_requests`` bucket of host requests.

        Software-only: device erases are invisible (``on_block_erased``
        stays the base's no-op), so the request count is the only trigger.
        """
        bucket = self.clock.requests // self.period_requests
        if bucket != self._last_bucket:
            self._last_bucket = bucket
            self._trigger_fired()

    def _dispatch_trigger(self) -> None:
        """Force-recycle the next ``span_blocks`` live blocks at the cursor."""
        self._in_procedure = True
        try:
            remaining = self.span_blocks
            visited = 0
            while remaining > 0 and visited < self.num_blocks:
                block = self.cursor
                self.cursor = (self.cursor + 1) % self.num_blocks
                visited += 1
                if block in self._retired:
                    continue
                if self._forced_recycle(range(block, block + 1)):
                    self.stats.moves += 1
                else:
                    self.stats.skipped_free += 1
                remaining -= 1
            self.stats.scrubs += 1
        finally:
            self._in_procedure = False

    def _snapshot_extra(self) -> dict[str, Any]:
        """The cursor, the trigger bucket and the retirements."""
        return {
            "cursor": self.cursor,
            "last_bucket": self._last_bucket,
            "retired": sorted(self._retired),
        }

    def _restore_extra(self, state: dict[str, Any]) -> None:
        self.cursor = int(state["cursor"])
        self._last_bucket = int(state["last_bucket"])
        self._retired = set(state["retired"])

    def __repr__(self) -> str:
        return (
            f"SoftWearLeveler(period={self.period_requests}, "
            f"span={self.span_blocks}, cursor={self.cursor})"
        )
