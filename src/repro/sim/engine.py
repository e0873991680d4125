"""Trace-driven simulation engine: the closed-loop replay driver.

Replays a sector-granular request stream (finite trace or endless
resampled trace) against a wired storage backend, advancing a simulated
clock from the request timestamps, and stops on the first block wear-out
(for first-failure-time experiments, Figure 5), on a request budget, or on
a simulated-time horizon (for the 10-year runs behind Table 4 and
Figures 6-7).

The request-application mechanics live in
:class:`~repro.sim.core.RequestCore`, which this module's
:class:`Simulator` shares with the open-loop service engine
(:mod:`repro.service`).  The replay driver adds what the closed loop
needs on top: the :class:`~repro.sim.core.StopCondition`-governed
``run()`` loop and durable checkpointing (see :mod:`repro.ckpt`).
``StopCondition``, ``WearSample``, ``SimResult`` and the decimation
defaults are defined there and re-exported here; the one place a
``SimResult`` becomes a table or a document is :mod:`repro.sim.reporting`.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.flash.errors import PowerLossError
from repro.obs.heatmap import WearHeatmap
from repro.sim.core import (
    MAX_HEATMAPS,
    MAX_SAMPLES,
    RequestCore,
    SimResult,
    StopCondition,
    WearSample,
)
from repro.traces.model import Request

__all__ = [
    "MAX_HEATMAPS",
    "MAX_SAMPLES",
    "RequestCore",
    "SimResult",
    "Simulator",
    "StopCondition",
    "WearSample",
]


class Simulator(RequestCore):
    """Replays requests against one storage backend.

    A thin closed-loop driver over :class:`~repro.sim.core.RequestCore`
    (which documents the constructor parameters): each request completes
    instantly at its trace timestamp, so the replay measures wear and
    endurance, not service latency — the paper's Section 5 protocol.
    """

    def run(
        self,
        requests: Iterable[Request],
        stop: StopCondition,
        *,
        label: str | None = None,
    ) -> SimResult:
        """Replay ``requests`` until a stop criterion fires; summarize."""
        backend = self.stack
        check_failure = stop.until_first_failure
        iterator: Iterator[Request] = iter(requests)
        for request in iterator:
            if stop.max_time is not None and request.time > stop.max_time:
                break
            try:
                self.apply(request)
            except PowerLossError:
                # A scheduled power loss from an attached fault injector
                # ends the replay; the partial result is still reported.
                self.power_lost = True
                break
            if check_failure and backend.first_failure is not None:
                break
            if stop.max_requests is not None and self.requests_done >= stop.max_requests:
                break
        return self.result(label=label)

    # ------------------------------------------------------------------
    # Checkpointing (see repro.ckpt)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict[str, object]:
        """Freeze the replay bookkeeping (not the backend — see the stack).

        ``sample_interval`` / ``heatmap_interval`` are mutable (decimation
        doubles them), so the *current* values are captured together with
        the next-capture deadlines and the decimated series themselves.
        """
        return {
            "clock": self.clock,
            "requests_done": self.requests_done,
            "pages_written": self.pages_written,
            "pages_read": self.pages_read,
            "power_lost": self.power_lost,
            "first_failure_clock": self.first_failure_clock,
            "sample_interval": self.sample_interval,
            "heatmap_interval": self.heatmap_interval,
            # inf (sampling disabled) is not valid JSON; ride as None.
            "next_sample": (
                None if self._next_sample == float("inf") else self._next_sample
            ),
            "next_heatmap": (
                None if self._next_heatmap == float("inf") else self._next_heatmap
            ),
            "timeline": [
                [s.time, s.average, s.deviation, s.maximum, s.total_erases]
                for s in self.timeline
            ],
            "heatmaps": [h.as_dict() for h in self.heatmaps],
        }

    def restore_state(self, state: dict[str, object]) -> None:
        """Inverse of :meth:`snapshot_state` (the backend restores itself)."""
        self.clock = state["clock"]  # type: ignore[assignment]
        self.requests_done = state["requests_done"]  # type: ignore[assignment]
        self.pages_written = state["pages_written"]  # type: ignore[assignment]
        self.pages_read = state["pages_read"]  # type: ignore[assignment]
        self.power_lost = bool(state["power_lost"])
        self.first_failure_clock = state["first_failure_clock"]  # type: ignore[assignment]
        self.sample_interval = state["sample_interval"]  # type: ignore[assignment]
        self.heatmap_interval = state["heatmap_interval"]  # type: ignore[assignment]
        self._next_sample = (
            state["next_sample"] if state["next_sample"] is not None  # type: ignore[assignment]
            else float("inf")
        )
        self._next_heatmap = (
            state["next_heatmap"] if state["next_heatmap"] is not None  # type: ignore[assignment]
            else float("inf")
        )
        self.timeline = [
            WearSample(
                time=time, average=average, deviation=deviation,
                maximum=maximum, total_erases=total,
            )
            for time, average, deviation, maximum, total in state["timeline"]  # type: ignore[union-attr]
        ]
        self.heatmaps = [
            WearHeatmap(
                ts=h["ts"],
                num_blocks=h["num_blocks"],
                bin_width=h["bin_width"],
                cells=tuple(h["cells"]),
                min_count=h["min_count"],
                max_count=h["max_count"],
                total_erases=h["total_erases"],
            )
            for h in state["heatmaps"]  # type: ignore[union-attr]
        ]
