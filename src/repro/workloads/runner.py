"""Drive multi-tenant workloads with per-tenant resource attribution.

Two runners, one per execution mode:

* :func:`run_multi_tenant_replay` — the closed-loop
  :class:`~repro.sim.engine.Simulator` path: every request completes
  instantly at its timestamp; the interesting outputs are wear and
  erase attribution.
* :func:`run_multi_tenant_service` — the open-loop
  :class:`~repro.service.engine.ServiceEngine` path: requests queue per
  channel; the runner additionally attributes end-to-end latency
  percentiles per tenant via the engine's ``on_served`` hook.

Attribution works by diffing the backend's cumulative counters
(``total_erases``, ``busy_time`` and the core's page counters) around
each request application and charging the delta to the tenant that
issued the request.  GC and SWL work triggered by a request is therefore
billed to its tenant — and since every request belongs to exactly one
tenant and the runs start from a fresh backend (no warmup), the
**conservation invariant** is exact: summing any
:class:`~repro.sim.metrics.TenantUsage` field over tenants reproduces
the device total.  Tests and the CI scale gate assert this equality with
``==``, not a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.service.engine import ServiceEngine
from repro.service.latency import LatencyHistogram, LatencySummary
from repro.sim.core import heatmap_kwargs
from repro.sim.engine import Simulator
from repro.sim.metrics import TenantUsage
from repro.workloads.tenants import MultiTenantWorkload

if TYPE_CHECKING:
    from repro.obs.telemetry import Telemetry
    from repro.service.results import ServiceResult
    from repro.sim.engine import SimResult
    from repro.sim.experiment import ExperimentSpec
    from repro.traces.model import Request


@dataclass(frozen=True)
class MultiTenantReplayResult:
    """A closed-loop replay plus its per-tenant attribution rows."""

    replay: "SimResult"
    tenants: list[TenantUsage]

    def conservation_errors(self) -> list[str]:
        """Violations of the per-tenant == device-total invariant.

        Empty on every correct run; the list form keeps gate output
        readable when something does break.
        """
        return _conservation_errors(self.tenants, self.replay)


@dataclass(frozen=True)
class MultiTenantServiceResult:
    """An open-loop service run plus per-tenant usage and latency."""

    service: "ServiceResult"
    tenants: list[TenantUsage]
    tenant_latencies: list[LatencySummary]

    def conservation_errors(self) -> list[str]:
        errors = _conservation_errors(self.tenants, self.service.replay)
        total = TenantUsage.totals(self.tenants)
        served = self.service.latency.count
        if total.requests != served:
            errors.append(
                f"tenant requests {total.requests} != served {served}"
            )
        return errors


def _conservation_errors(
    tenants: list[TenantUsage], replay: "SimResult"
) -> list[str]:
    total = TenantUsage.totals(tenants)
    errors = []
    if total.erases != replay.total_erases:
        errors.append(
            f"tenant erases {total.erases} != device {replay.total_erases}"
        )
    if total.pages_written != replay.pages_written:
        errors.append(
            f"tenant pages_written {total.pages_written} "
            f"!= device {replay.pages_written}"
        )
    if abs(total.busy_time - replay.device_busy_time) > 1e-6:
        errors.append(
            f"tenant busy_time {total.busy_time} "
            f"!= device {replay.device_busy_time}"
        )
    return errors


def run_multi_tenant_replay(
    spec: "ExperimentSpec",
    workload: MultiTenantWorkload,
    *,
    max_requests: int | None = None,
    horizon: float | None = None,
    telemetry: "Telemetry | None" = None,
) -> MultiTenantReplayResult:
    """Replay the multiplexed stream, attributing wear per tenant.

    At least one of ``max_requests`` / ``horizon`` (virtual seconds) is
    required — tenant streams are endless.  Reads are applied (not
    skipped): tenants with read-heavy shapes must still be charged their
    read service time so busy-time attribution stays conserved.
    """
    _check_bounds(max_requests, horizon)
    backend = spec.build(telemetry=telemetry)
    simulator = Simulator(
        backend,
        skip_reads=False,
        **heatmap_kwargs(telemetry),
    )
    usage = [TenantUsage(name=t.name) for t in workload.tenants]
    erases = 0
    busy = 0.0
    pages_written = 0
    pages_read = 0
    served = 0
    for index, request in workload.iter_tagged():
        if horizon is not None and request.time > horizon:
            break
        simulator.apply(request)
        row = usage[index]
        row.requests += 1
        row.erases += backend.total_erases() - erases
        row.busy_time += backend.busy_time - busy
        row.pages_written += simulator.pages_written - pages_written
        row.pages_read += simulator.pages_read - pages_read
        erases = backend.total_erases()
        busy = backend.busy_time
        pages_written = simulator.pages_written
        pages_read = simulator.pages_read
        served += 1
        if max_requests is not None and served >= max_requests:
            break
    label = f"{spec.label()}·{len(usage)}tenants[{workload.policy}]"
    result = simulator.result(label=label)
    if telemetry is not None:
        telemetry.flush()
    return MultiTenantReplayResult(replay=result, tenants=usage)


def run_multi_tenant_service(
    spec: "ExperimentSpec",
    workload: MultiTenantWorkload,
    *,
    max_requests: int | None = None,
    max_time: float | None = None,
    queue_depth: int = 64,
    telemetry: "Telemetry | None" = None,
) -> MultiTenantServiceResult:
    """Serve the multiplexed stream, attributing wear *and* latency.

    The engine pulls requests from a wrapper generator that records each
    request's tenant tag as it is yielded; the engine's ``on_served``
    hook fires once per request, in order, so the pending-tag queue
    never holds more than one entry and attribution cannot drift.
    """
    _check_bounds(max_requests, max_time)
    backend = spec.build(telemetry=telemetry)
    engine = ServiceEngine(
        backend,
        queue_depth=queue_depth,
        telemetry=telemetry,
        **heatmap_kwargs(telemetry),
    )
    usage = [TenantUsage(name=t.name) for t in workload.tenants]
    histograms = [LatencyHistogram() for _ in workload.tenants]
    pending: list[int] = []
    previous = {
        "erases": 0,
        "busy": 0.0,
        "pages_written": 0,
        "pages_read": 0,
    }

    def tagged_stream() -> Iterator["Request"]:
        for index, request in workload.iter_tagged():
            pending.append(index)
            yield request

    def on_served(request: "Request", latency: float) -> None:
        index = pending.pop(0)
        row = usage[index]
        row.requests += 1
        row.erases += backend.total_erases() - previous["erases"]
        row.busy_time += backend.busy_time - previous["busy"]
        row.pages_written += engine.pages_written - previous["pages_written"]
        row.pages_read += engine.pages_read - previous["pages_read"]
        previous["erases"] = backend.total_erases()
        previous["busy"] = backend.busy_time
        previous["pages_written"] = engine.pages_written
        previous["pages_read"] = engine.pages_read
        histograms[index].observe(latency)

    engine.on_served = on_served
    label = f"{spec.label()}·{len(usage)}tenants[{workload.policy}]"
    result = engine.serve(
        tagged_stream(),
        max_requests=max_requests,
        max_time=max_time,
        label=label,
    )
    return MultiTenantServiceResult(
        service=result,
        tenants=usage,
        tenant_latencies=[h.summary() for h in histograms],
    )


def _check_bounds(max_requests: int | None, max_time: float | None) -> None:
    if max_requests is None and max_time is None:
        raise ValueError(
            "a multi-tenant run needs max_requests or a time bound"
        )
    if max_requests is not None and max_requests <= 0:
        raise ValueError(f"max_requests must be positive, got {max_requests}")
    if max_time is not None and max_time <= 0:
        raise ValueError(f"time bound must be positive, got {max_time}")
