"""Telemetry facade: one object bundling bus, collector, and exporters.

The CLI and experiment runners deal with a single :class:`Telemetry`
handle instead of wiring bus/collector/exporters by hand:

>>> telemetry = Telemetry.to_directory("out/")   # doctest: +SKIP
>>> result = run_fixed_horizon(spec, trace, horizon,
...                            telemetry=telemetry)   # doctest: +SKIP
>>> telemetry.finish()                                # doctest: +SKIP

``finish()`` flushes every exporter, once: it closes the JSONL stream,
writes the Chrome trace document, and renders the Prometheus snapshot.  The
heatmap preferences ride along so one object carries the whole
observability configuration of a run.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.obs.bus import EventBus
from repro.obs.collect import MetricsCollector
from repro.obs.export import (
    ChromeTraceExporter,
    JsonlTraceExporter,
    LogExporter,
)
from repro.obs.metrics import MetricsSnapshot, render_prometheus

#: Default heatmap grid width (cells).
DEFAULT_HEATMAP_BINS = 64


class Telemetry:
    """Owns an :class:`EventBus` plus the standard subscriber set.

    A :class:`~repro.obs.collect.MetricsCollector` is always attached;
    file exporters are attached for whichever paths are given.  Pass
    ``log_events=True`` to additionally route events onto the
    ``repro.*`` logging channels.

    The bus buffers emissions as flat tuples and delivers them in
    batches (DESIGN.md §5f); the chips' read/program/erase totals are
    read from device state instead of being emitted.  :meth:`flush`
    drains the buffer and syncs those totals; :meth:`snapshot` and
    :meth:`finish` flush first, so observed metrics are always complete.
    The experiment runners also flush after each run, so collector state
    read directly (``telemetry.collector``) is complete too.
    """

    def __init__(
        self,
        *,
        jsonl_path: Optional[Union[str, Path]] = None,
        chrome_path: Optional[Union[str, Path]] = None,
        prometheus_path: Optional[Union[str, Path]] = None,
        run_name: str = "repro",
        log_events: bool = False,
        heatmap_bins: int = DEFAULT_HEATMAP_BINS,
        heatmap_interval: Optional[float] = None,
    ) -> None:
        self.bus = EventBus()
        self.collector = MetricsCollector()
        self.bus.subscribe(self.collector)
        self.heatmap_bins = heatmap_bins
        self.heatmap_interval = heatmap_interval
        self.jsonl: Optional[JsonlTraceExporter] = None
        self._jsonl_path: Optional[Path] = None
        if jsonl_path is not None:
            self._jsonl_path = Path(jsonl_path)
            self.jsonl = JsonlTraceExporter(self._jsonl_path)
            self.bus.subscribe(self.jsonl)
        self.chrome: Optional[ChromeTraceExporter] = None
        self._chrome_path: Optional[Path] = None
        if chrome_path is not None:
            self._chrome_path = Path(chrome_path)
            self.chrome = ChromeTraceExporter(run_name)
            self.bus.subscribe(self.chrome)
        self._prometheus_path = (Path(prometheus_path)
                                 if prometheus_path is not None else None)
        if log_events:
            self.bus.subscribe(LogExporter())
        #: What :meth:`finish` wrote; ``None`` until it has run.
        self._written: Optional[dict[str, Path]] = None

    @classmethod
    def to_directory(cls, directory: Union[str, Path],
                     **kwargs: object) -> "Telemetry":
        """Telemetry writing the standard file set into ``directory``.

        Creates the directory and produces ``trace.jsonl``,
        ``trace.chrome.json``, and ``metrics.prom`` on ``finish()``.
        """
        base = Path(directory)
        base.mkdir(parents=True, exist_ok=True)
        return cls(
            jsonl_path=base / "trace.jsonl",
            chrome_path=base / "trace.chrome.json",
            prometheus_path=base / "metrics.prom",
            **kwargs,  # type: ignore[arg-type]
        )

    def flush(self) -> None:
        """Drain any buffered events; sync pulled counters from devices."""
        self.bus.flush()
        self.collector.pull_hot_counters(self.bus.hot_sources)

    def snapshot(self) -> MetricsSnapshot:
        """Global metrics snapshot (exact merge across shards)."""
        self.flush()
        return self.collector.snapshot()

    def finish(self) -> dict[str, Path]:
        """Flush every exporter; returns the files written by name.

        The file exporters are detached once their files are final, so
        events emitted afterwards reach only the collector (``snapshot``
        keeps working) and a second call just returns the same paths.
        """
        if self._written is not None:
            return self._written
        self.flush()
        written: dict[str, Path] = {}
        if self.jsonl is not None and self._jsonl_path is not None:
            self.bus.unsubscribe(self.jsonl)
            self.jsonl.close()
            written["jsonl"] = self._jsonl_path
        if self.chrome is not None and self._chrome_path is not None:
            self.bus.unsubscribe(self.chrome)
            self.chrome.dump(self._chrome_path)
            written["chrome"] = self._chrome_path
        if self._prometheus_path is not None:
            self._prometheus_path.write_text(
                render_prometheus(self.snapshot()), encoding="utf-8")
            written["prometheus"] = self._prometheus_path
        self._written = written
        return written
