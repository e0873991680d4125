"""The traced pass: spans at every layer boundary, recorded from outside.

Nothing in ``src/repro`` is edited or monkey-patched.  The stack is
composed through public constructors with timing proxies at each
boundary::

    TracedSimulator / TracedServiceEngine   (subclass: spans ``apply``)
      -> proxied DeviceArray                (4 channels only)
        -> StorageStack(flash, proxied MtdDevice, proxied layer,
                        proxied leveler)

Each span has a name, start, end, parent and request id.  Count, total
and self time are aggregated online per name; full records are kept for
the first requests only and written as Chrome trace JSON.  A span's self
time is its duration minus the part its child spans cover — note that
``core.on_block_erased`` runs *inside* ``flash.erase`` (it is the chip's
erase listener), so leveler work never counts as flash time.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator

from repro.array.coordinator import WearCoordinator
from repro.array.device import DeviceArray
from repro.array.striping import make_striping
from repro.flash.chip import NandFlash
from repro.flash.mtd import MtdDevice
from repro.ftl.factory import StorageBackend, StorageStack, make_layer
from repro.service.engine import ServiceEngine
from repro.sim.engine import Simulator
from repro.sim.experiment import ExperimentSpec
from repro.traces.model import Request
from repro.util.rng import make_rng, spawn_rng

#: Full span records are kept for this many timed requests ...
KEEP_REQUESTS = 2000
#: ... and never more than this many spans (GC-heavy workloads open
#: hundreds of spans per request).
KEEP_SPANS = 200_000


class Tracer:
    """Span recorder with online per-name count / total / self time."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (the warm-up's spans)."""
        #: name -> [count, total seconds, self seconds]
        self.totals: dict[str, list[float]] = {}
        #: (name, start, end, span id, parent id, request id)
        self.records: list[tuple[str, float, float, int, int, int]] = []
        self.spans = 0
        self.request = -1
        #: Simulated busy seconds added under ``ftl.swl_recycle`` spans.
        self.swl_busy_s = 0.0
        # Open spans, innermost last: [span id, seconds covered by children].
        self._open: list[list[float]] = []
        self._recycle_depth = 0
        # Erases seen outside a forced recycle; a host write whose span
        # saw this move contained garbage collection.
        self._gc_erases = 0

    # ------------------------------------------------------------------
    def _close(self, name: str, start: float, frame: list[float]) -> None:
        end = perf_counter()
        open_spans = self._open
        open_spans.pop()
        duration = end - start
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame[1]
        parent = -1
        if open_spans:
            outer = open_spans[-1]
            outer[1] += duration
            parent = int(outer[0])
        if self.request < KEEP_REQUESTS and len(self.records) < KEEP_SPANS:
            self.records.append(
                (name, start, end, int(frame[0]), parent, self.request)
            )

    def _enter(self) -> list[float]:
        frame = [self.spans, 0.0]
        self.spans += 1
        self._open.append(frame)
        return frame

    def wrap(self, name: str, call: Callable[..., Any]) -> Callable[..., Any]:
        """``call`` timed as a span named ``name``."""
        enter, close = self._enter, self._close

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = enter()
            start = perf_counter()
            try:
                return call(*args, **kwargs)
            finally:
                close(name, start, frame)

        return traced

    def wrap_request(self, name: str, call: Callable[..., Any]) -> Callable[..., Any]:
        """Like :meth:`wrap`, and every call starts a new request id."""
        traced = self.wrap(name, call)

        def per_request(*args: Any, **kwargs: Any) -> Any:
            self.request += 1
            return traced(*args, **kwargs)

        return per_request

    def wrap_erase(self, name: str, call: Callable[..., Any]) -> Callable[..., Any]:
        """Like :meth:`wrap`, and notes erases not forced by the leveler."""
        traced = self.wrap(name, call)

        def erase(*args: Any, **kwargs: Any) -> Any:
            if not self._recycle_depth:
                self._gc_erases += 1
            return traced(*args, **kwargs)

        return erase

    def wrap_host_write(
        self, mapping: str, cleaning: str, call: Callable[..., Any]
    ) -> Callable[..., Any]:
        """Span named ``cleaning`` when it contained a GC erase, else ``mapping``."""
        enter, close = self._enter, self._close

        def write(*args: Any, **kwargs: Any) -> Any:
            erases = self._gc_erases
            frame = enter()
            start = perf_counter()
            try:
                return call(*args, **kwargs)
            finally:
                close(
                    cleaning if self._gc_erases != erases else mapping,
                    start, frame,
                )

        return write

    def wrap_recycle(
        self, name: str, call: Callable[..., Any], busy: Callable[[], float]
    ) -> Callable[..., Any]:
        """Like :meth:`wrap`; also sums the simulated busy time it added."""
        traced = self.wrap(name, call)

        def recycle(*args: Any, **kwargs: Any) -> Any:
            outermost = not self._recycle_depth
            before = busy() if outermost else 0.0
            self._recycle_depth += 1
            try:
                return traced(*args, **kwargs)
            finally:
                self._recycle_depth -= 1
                if outermost:
                    self.swl_busy_s += busy() - before

        return recycle

    def iterate(self, name: str, stream: Iterable[Request]) -> Iterator[Request]:
        """``stream`` with every ``next()`` timed as a span."""
        # The two-argument form ends when the call raises StopIteration;
        # the sentinel itself never appears.
        return iter(self.wrap(name, iter(stream).__next__), object())

    # ------------------------------------------------------------------
    def count(self, *names: str) -> int:
        return int(sum(self.totals[n][0] for n in names if n in self.totals))

    def self_s(self, *names: str) -> float:
        return sum(self.totals[n][2] for n in names if n in self.totals)

    def write_chrome_trace(self, path: Path) -> None:
        """Kept span records as Chrome ``trace_event`` complete events."""
        origin = min((record[1] for record in self.records), default=0.0)
        events = [
            {
                "name": name,
                "ph": "X",
                "pid": 0,
                "tid": 0,
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"id": span, "parent": parent, "request": request},
            }
            for name, start, end, span, parent, request in self.records
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))


class SpanProxy:
    """Stands in for ``target``; chosen methods are replaced by spans.

    Every other attribute read or write goes to ``target``, so the
    objects the proxy is handed to (a driver holding its MTD, a leveler
    holding its host, an array holding its shards) cannot tell.
    """

    def __init__(self, target: Any, spans: dict[str, Callable[..., Any]]) -> None:
        object.__setattr__(self, "_target", target)
        for method, traced in spans.items():
            object.__setattr__(self, method, traced)

    def __getattr__(self, name: str) -> Any:
        return getattr(object.__getattribute__(self, "_target"), name)

    def __setattr__(self, name: str, value: Any) -> None:
        setattr(object.__getattribute__(self, "_target"), name, value)


def _traced_shard(
    spec: ExperimentSpec, tracer: Tracer, rng: Any
) -> tuple[StorageStack, Any]:
    """One chip + MTD + driver + leveler with a proxy at each boundary.

    Mirrors ``repro.ftl.factory.build_stack``; returns the stack and the
    unproxied leveler (what a coordinator attaches to).
    """
    geometry = spec.geometry
    flash = NandFlash(geometry)
    device = MtdDevice(flash)
    mtd = SpanProxy(device, {
        "write_page": tracer.wrap("flash.program", device.write_page),
        "read_page": tracer.wrap("flash.read", device.read_page),
        "erase_block": tracer.wrap_erase("flash.erase", device.erase_block),
        "invalidate_page": tracer.wrap(
            "flash.invalidate", device.invalidate_page
        ),
    })
    driver = make_layer(
        spec.driver, mtd, op_ratio=spec.op_ratio,  # type: ignore[arg-type]
        alloc_policy=spec.alloc_policy,
    )
    layer = SpanProxy(driver, {
        "write": tracer.wrap_host_write(
            "ftl.write", "ftl.write+gc", driver.write
        ),
        "read": tracer.wrap("ftl.read", driver.read),
        "recycle_block_range": tracer.wrap_recycle(
            "ftl.swl_recycle", driver.recycle_block_range,
            lambda: device.busy_time,
        ),
    })
    assert spec.swl is not None
    mechanism = spec.swl.build(geometry.num_blocks, layer, rng=rng)  # type: ignore[arg-type]
    assert mechanism is not None
    leveler = SpanProxy(mechanism, {
        "on_block_erased": tracer.wrap(
            "core.on_block_erased", mechanism.on_block_erased
        ),
        "on_request": tracer.wrap("core.on_request", mechanism.on_request),
    })
    driver.attach_leveler(leveler)  # type: ignore[arg-type]
    stack = StorageStack(
        flash=flash, mtd=mtd, layer=layer, leveler=leveler,  # type: ignore[arg-type]
    )
    return stack, mechanism


def build_traced_backend(spec: ExperimentSpec, tracer: Tracer) -> StorageBackend:
    """What ``spec.build()`` builds, with a proxy at every layer boundary.

    RNG streams are derived exactly as ``ExperimentSpec.build`` and
    ``repro.array.device.build_array`` derive them, so the traced stack
    replays bit-identically to the untraced one (the run checks the
    digests agree).
    """
    rng = spawn_rng(make_rng(spec.seed), "leveler")
    if spec.channels == 1:
        stack, _ = _traced_shard(spec, tracer, rng)
        return stack
    shards = []
    assert spec.swl is not None
    coordinator = WearCoordinator(spec.swl.threshold, scope=spec.swl_scope)
    for index in range(spec.channels):
        stack, mechanism = _traced_shard(
            spec, tracer, spawn_rng(rng, f"shard{index}")
        )
        coordinator.attach(mechanism)
        shards.append(stack)
    striping = make_striping(
        spec.striping, spec.channels, shards[0].layer.num_logical_pages
    )
    array = DeviceArray(shards, striping, coordinator=coordinator)
    return SpanProxy(array, {  # type: ignore[return-value]
        "write_pages": tracer.wrap("array.dispatch", array.write_pages),
        "read_pages": tracer.wrap("array.dispatch", array.read_pages),
        "on_request": tracer.wrap("array.dispatch", array.on_request),
    })


def traced_engine_classes(tracer: Tracer) -> dict[str, type]:
    """Engine subclasses whose ``apply`` opens one span per request.

    Subclassing keeps ``Simulator.run`` / ``ServiceEngine.serve`` — the
    loops the untraced pass times — in charge of the traced pass too.
    """

    class TracedSimulator(Simulator):
        apply = tracer.wrap_request("sim.apply", Simulator.apply)

    class TracedServiceEngine(ServiceEngine):
        apply = tracer.wrap_request("sim.apply", ServiceEngine.apply)

    return {"replay_cls": TracedSimulator, "service_cls": TracedServiceEngine}
