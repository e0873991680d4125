"""Striping policies: routing logical pages to channel shards.

A multi-channel device exports one flat logical page space but stores it
across N independent channel shards (chip + FTL + SW Leveler each).  The
striping policy is the pure address arithmetic in between: it maps an
array-wide logical page number (LPN) to a ``(shard, local LPN)`` pair and
back.  Two layouts are provided:

* :class:`PageInterleaved` — round-robin, page granularity.  Consecutive
  logical pages land on consecutive channels, so a sequential write of N
  pages touches every channel once — the layout real multi-channel
  controllers use to extract parallelism.
* :class:`ContiguousRange` — each shard owns one contiguous slice of the
  logical space.  Locality-preserving: a file's pages stay on one channel,
  which concentrates wear and is exactly the imbalance the distributed
  wear-leveling ablation wants to exercise.

Both are bijections over ``[0, num_shards * pages_per_shard)``; a
1-shard policy of either kind is the identity map, which is what makes a
1-channel array bit-identical to the single-chip stack.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Sequence

from repro.flash.errors import FlashError, TranslationError


class StripingPolicy(ABC):
    """Bijective map between array LPNs and per-shard LPNs.

    Parameters
    ----------
    num_shards:
        Channel count of the array.
    pages_per_shard:
        Logical pages exported by every shard (shards are uniform).
    """

    #: Short name used by the CLI and in labels.
    name: str = "abstract"

    def __init__(self, num_shards: int, pages_per_shard: int) -> None:
        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        if pages_per_shard <= 0:
            raise ValueError(
                f"pages_per_shard must be positive, got {pages_per_shard}"
            )
        self.num_shards = num_shards
        self.pages_per_shard = pages_per_shard
        #: Logical pages exported by the whole array.  A plain attribute,
        #: not a property: ``route``/``route_batch`` read it per call on
        #: the dispatcher hot path.
        self.total_pages = num_shards * pages_per_shard

    def check(self, lpn: int) -> None:
        if not 0 <= lpn < self.total_pages:
            raise TranslationError(
                f"array LPN {lpn} out of range [0, {self.total_pages})"
            )

    @abstractmethod
    def route(self, lpn: int) -> tuple[int, int]:
        """Array LPN -> ``(shard, local LPN)``."""

    @abstractmethod
    def unroute(self, shard: int, local_lpn: int) -> int:
        """``(shard, local LPN)`` -> array LPN (inverse of :meth:`route`)."""

    def route_batch(
        self, lpns: "Sequence[int]", buffers: list[list[int]]
    ) -> None:
        """Route many LPNs, appending each local LPN to its shard's buffer.

        ``buffers`` must hold one list per shard; request order is
        preserved within each.  Equivalent to calling :meth:`route` per
        LPN (same range errors), but concrete policies inline the
        address arithmetic so the dispatcher hot path pays no per-page
        method call or tuple build.
        """
        for lpn in lpns:
            shard, local = self.route(lpn)
            buffers[shard].append(local)

    @abstractmethod
    def compile_pages_dispatch(
        self,
        span_ops: Sequence[Callable[[Sequence[int]], int]],
        fallback: Callable[[Sequence[int]], int],
    ) -> Callable[[Sequence[int]], int]:
        """Compile a complete page-batch dispatcher for this policy.

        The returned closure ``dispatch(lpns) -> pages`` is a drop-in
        ``write_pages``/``read_pages`` body: contiguous ascending ranges
        (the engine's multi-page request shape) and single-element
        batches are served with the routing constants and per-shard
        ``span_ops`` bound as locals — one call frame per request, no
        policy method calls, no intermediate batches.  Each touched shard
        is handed its whole local range in one ``span_ops[shard](locals)
        -> pages`` call.  Anything else is delegated to ``fallback`` (the
        generic buffered path).

        Shards are visited in ascending index, each with an ascending
        local range — the same visit order as :meth:`route_batch` feeding
        per-shard batches, which is what keeps a compiled array
        bit-identical to the generic dispatcher.  On a
        :class:`FlashError` the closure adds the pages completed on
        *earlier* shards to the exception's ``pages_done`` (the failing
        shard has already counted its own) and re-raises.
        """

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(shards={self.num_shards}, "
            f"pages_per_shard={self.pages_per_shard})"
        )


class PageInterleaved(StripingPolicy):
    """Round-robin page interleaving: ``lpn % N`` picks the channel."""

    name = "page"

    def route(self, lpn: int) -> tuple[int, int]:
        if not 0 <= lpn < self.total_pages:
            self.check(lpn)
        return lpn % self.num_shards, lpn // self.num_shards

    def route_batch(
        self, lpns: Sequence[int], buffers: list[list[int]]
    ) -> None:
        shards = self.num_shards
        total = self.total_pages
        for lpn in lpns:
            if 0 <= lpn < total:
                buffers[lpn % shards].append(lpn // shards)
            else:
                self.check(lpn)

    def compile_pages_dispatch(
        self,
        span_ops: Sequence[Callable[[Sequence[int]], int]],
        fallback: Callable[[Sequence[int]], int],
    ) -> Callable[[Sequence[int]], int]:
        shards = self.num_shards
        total = self.total_pages
        check = self.check
        ops = tuple(span_ops)
        if len(ops) != shards:
            raise ValueError(
                f"{shards} shards but {len(ops)} page operations"
            )

        def dispatch(lpns: Sequence[int]) -> int:
            if type(lpns) is range and lpns.step == 1:
                start = lpns.start
                stop = lpns.stop
                if start < 0:
                    check(start)
                if stop > total:
                    check(stop - 1)
                # Shard s owns the span lpns ≡ s (mod N); their local
                # images (lpn // N) are consecutive, so each shard's
                # share is a plain local range.  With the span anchor
                # divided once up front (q0, r0), a shard needs just one
                # division — for its page count — and no per-page
                # arithmetic at all.
                q0 = start // shards
                r0 = start - q0 * shards
                n = stop - start
                done = 0
                try:
                    for shard in range(shards):
                        offset = shard - r0
                        if offset < 0:
                            offset += shards
                            lo = q0 + 1
                        else:
                            lo = q0
                        if offset >= n:
                            continue
                        count = (n - 1 - offset) // shards + 1
                        done += ops[shard](range(lo, lo + count))
                except FlashError as exc:
                    exc.pages_done += done
                    raise
                return done
            if len(lpns) == 1:
                lpn = lpns[0]
                if not 0 <= lpn < total:
                    check(lpn)
                return ops[lpn % shards]((lpn // shards,))
            return fallback(lpns)

        return dispatch

    def unroute(self, shard: int, local_lpn: int) -> int:
        return local_lpn * self.num_shards + shard


class ContiguousRange(StripingPolicy):
    """Range sharding: shard ``i`` owns LPNs ``[i*P, (i+1)*P)``."""

    name = "range"

    def route(self, lpn: int) -> tuple[int, int]:
        if not 0 <= lpn < self.total_pages:
            self.check(lpn)
        return lpn // self.pages_per_shard, lpn % self.pages_per_shard

    def route_batch(
        self, lpns: Sequence[int], buffers: list[list[int]]
    ) -> None:
        per_shard = self.pages_per_shard
        total = self.total_pages
        for lpn in lpns:
            if 0 <= lpn < total:
                buffers[lpn // per_shard].append(lpn % per_shard)
            else:
                self.check(lpn)

    def compile_pages_dispatch(
        self,
        span_ops: Sequence[Callable[[Sequence[int]], int]],
        fallback: Callable[[Sequence[int]], int],
    ) -> Callable[[Sequence[int]], int]:
        per_shard = self.pages_per_shard
        total = self.total_pages
        check = self.check
        ops = tuple(span_ops)
        if len(ops) != self.num_shards:
            raise ValueError(
                f"{self.num_shards} shards but {len(ops)} page operations"
            )

        def dispatch(lpns: Sequence[int]) -> int:
            if type(lpns) is range and lpns.step == 1:
                start = lpns.start
                stop = lpns.stop
                if start < 0:
                    check(start)
                if stop > total:
                    check(stop - 1)
                done = 0
                try:
                    for shard in range(start // per_shard,
                                       (stop - 1) // per_shard + 1):
                        base = shard * per_shard
                        lo = start - base if start > base else 0
                        hi = stop - base if stop - base < per_shard else per_shard
                        done += ops[shard](range(lo, hi))
                except FlashError as exc:
                    exc.pages_done += done
                    raise
                return done
            if len(lpns) == 1:
                lpn = lpns[0]
                if not 0 <= lpn < total:
                    check(lpn)
                return ops[lpn // per_shard]((lpn % per_shard,))
            return fallback(lpns)

        return dispatch

    def unroute(self, shard: int, local_lpn: int) -> int:
        return shard * self.pages_per_shard + local_lpn


_POLICIES: dict[str, type[StripingPolicy]] = {
    PageInterleaved.name: PageInterleaved,
    ContiguousRange.name: ContiguousRange,
}


def striping_names() -> list[str]:
    """Names accepted by :func:`make_striping` (``page``, ``range``)."""
    return sorted(_POLICIES)


def make_striping(
    name: str, num_shards: int, pages_per_shard: int
) -> StripingPolicy:
    """Instantiate a striping policy by name."""
    try:
        cls = _POLICIES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown striping policy {name!r}; choose from {striping_names()}"
        ) from None
    return cls(num_shards, pages_per_shard)
