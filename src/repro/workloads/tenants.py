"""Multi-tenant multiplexer: N tenant streams onto one device.

A tenant is a named workload shape plus a weight and a device region.
The :class:`MultiTenantWorkload` multiplexer maps each tenant's private
LBA stream onto its region of the shared device — disjoint regions by
default (equal partition of the space in tenant order), or deliberately
overlapping ones when the caller assigns explicit regions — and
interleaves the streams into one arrival-ordered request sequence.

Interleaving policies
---------------------
``"merge"``
    Every tenant keeps its own (Poisson) arrival clock, time-compressed
    by its weight (weight 2 ⇒ twice the request rate), and the streams
    are merged by timestamp.  Weights change only the *pacing* of a
    tenant's stream, never its LBA sequence, so attribution comparisons
    across weight settings stay apples-to-apples.
``"round-robin"``
    Tenants take turns under smooth weighted round-robin (the classic
    credit scheme: each step every tenant earns its weight, the richest
    tenant is served and pays the total), and arrivals are re-stamped by
    a shared Poisson clock at the combined weighted rate, drawn from a
    dedicated ``"workload:mux"`` RNG stream.

Both policies yield ``(tenant_index, Request)`` pairs from
:meth:`MultiTenantWorkload.iter_tagged`; the tag is what the runners in
:mod:`repro.workloads.runner` use for per-tenant wear and latency
attribution.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.traces.generator import WorkloadShape
from repro.traces.model import Request
from repro.util.rng import make_rng, spawn_rng

#: Interleaving policies accepted by :class:`MultiTenantWorkload`.
TENANT_POLICIES = ("merge", "round-robin")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: a name, a workload shape, a weight, and a region.

    ``region`` is a half-open device-sector interval ``[start, end)``;
    ``None`` lets the multiplexer assign disjoint equal partitions.
    Explicit regions may overlap — that is the "noisy neighbours on
    shared blocks" configuration, and the multiplexer only checks basic
    well-formedness.
    """

    name: str
    shape: WorkloadShape
    weight: float = 1.0
    region: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")
        if self.region is not None:
            start, end = self.region
            if start < 0 or end <= start:
                raise ValueError(f"malformed region {self.region}")


class MultiTenantWorkload:
    """Interleave tenant streams onto regions of one shared device."""

    def __init__(
        self,
        tenants: Sequence[TenantSpec],
        total_sectors: int,
        *,
        policy: str = "merge",
        seed: int = 0,
    ) -> None:
        if not tenants:
            raise ValueError("at least one tenant is required")
        if total_sectors <= 0:
            raise ValueError("total_sectors must be positive")
        if policy not in TENANT_POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; choose from {TENANT_POLICIES}"
            )
        names = [tenant.name for tenant in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"tenant names must be unique, got {names}")
        self.tenants = list(tenants)
        self.total_sectors = total_sectors
        self.policy = policy
        self.seed = seed
        self.regions = self._assign_regions()

    def _assign_regions(self) -> list[tuple[int, int]]:
        """Explicit regions verbatim; otherwise disjoint equal slices."""
        explicit = [t.region for t in self.tenants if t.region is not None]
        if explicit and len(explicit) != len(self.tenants):
            raise ValueError(
                "either every tenant declares a region or none does"
            )
        if explicit:
            for start, end in explicit:
                if end > self.total_sectors:
                    raise ValueError(
                        f"region [{start}, {end}) exceeds the device's "
                        f"{self.total_sectors} sectors"
                    )
            return list(explicit)  # type: ignore[arg-type]
        count = len(self.tenants)
        width = self.total_sectors // count
        if width < 1:
            raise ValueError(
                f"{count} tenants cannot partition {self.total_sectors} sectors"
            )
        regions = [
            (index * width, (index + 1) * width) for index in range(count)
        ]
        # The last tenant absorbs the remainder of an uneven split.
        regions[-1] = (regions[-1][0], self.total_sectors)
        return regions

    def _place(self, index: int, request: Request) -> Request:
        """Map a tenant-private request onto the tenant's device region."""
        start, end = self.regions[index]
        length = end - start
        lba = start + request.lba % length
        return Request(
            request.time,
            request.op,
            lba,
            min(request.sectors, end - lba),
        )

    # ------------------------------------------------------------------
    def iter_tagged(self) -> Iterator[tuple[int, Request]]:
        """Endless ``(tenant_index, device_request)`` stream.

        Each call replays the identical stream: tenant shapes restart
        their seeded streams on re-iteration, and the multiplexer's own
        ``"workload:mux"`` RNG is re-derived here — so one multiplexer
        can drive a replay run and a service run with the same requests.
        """
        if self.policy == "merge":
            return self._iter_merge()
        return self._iter_round_robin()

    def iter_requests(self) -> Iterator[Request]:
        """The same stream without the tenant tags."""
        return (request for _, request in self.iter_tagged())

    def _iter_merge(self) -> Iterator[tuple[int, Request]]:
        streams = [tenant.shape.iter_requests() for tenant in self.tenants]
        weights = [tenant.weight for tenant in self.tenants]
        # (scaled_time, tenant_index) keys make the heap order total and
        # deterministic: ties in time break by tenant position.
        heap: list[tuple[float, int, Request]] = []
        for index, stream in enumerate(streams):
            request = next(stream)
            heapq.heappush(heap, (request.time / weights[index], index, request))
        while heap:
            when, index, request = heapq.heappop(heap)
            yield index, self._place(
                index,
                Request(when, request.op, request.lba, request.sectors),
            )
            upcoming = next(streams[index])
            heapq.heappush(
                heap, (upcoming.time / weights[index], index, upcoming)
            )

    def _iter_round_robin(self) -> Iterator[tuple[int, Request]]:
        streams = [tenant.shape.iter_requests() for tenant in self.tenants]
        weights = [tenant.weight for tenant in self.tenants]
        total_weight = sum(weights)
        combined_rate = sum(
            tenant.weight * tenant.shape.params.rate for tenant in self.tenants
        )
        credits = [0.0] * len(self.tenants)
        rng = spawn_rng(make_rng(self.seed), "workload:mux")
        now = 0.0
        while True:
            for index, weight in enumerate(weights):
                credits[index] += weight
            index = max(range(len(credits)), key=lambda i: (credits[i], -i))
            credits[index] -= total_weight
            now += rng.expovariate(combined_rate)
            request = next(streams[index])
            yield index, self._place(
                index,
                Request(now, request.op, request.lba, request.sectors),
            )
