"""Golden telemetry artifacts: the bytes ``Telemetry.to_directory`` writes.

Two small fixed-seed runs — a 1-channel FTL replay in which SWL-Procedure
fires, and a 4-channel NFTL run through :class:`ServiceEngine` (shard
clocks, ``QueueDepth`` samples) — must reproduce, byte for byte, the
``trace.jsonl`` / ``trace.chrome.json`` / ``metrics.prom`` recorded in
``obs_golden.json`` at commit 08b1d6f, before ``repro.obs`` lost its
synchronous and tally delivery modes.  Regenerate (only for an intended
format change) with ``PYTHONPATH=src python tests/test_obs_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
from itertools import islice
from pathlib import Path

import pytest

from repro.core.config import SWLConfig
from repro.obs import Telemetry
from repro.service import ServiceEngine, poisson_arrivals
from repro.sim.experiment import (
    ExperimentSpec,
    run_fixed_horizon,
    scaled_mlc2_geometry,
    workload_params_for,
)
from repro.traces.extend import SegmentResampler
from repro.traces.generator import MobilePCWorkload
from repro.util.rng import make_rng, spawn_rng

GOLDEN_PATH = Path(__file__).with_name("obs_golden.json")
ARTIFACTS = ("trace.jsonl", "trace.chrome.json", "metrics.prom")


def ftl_1ch_swl(directory: Path) -> None:
    spec = ExperimentSpec(
        "ftl", scaled_mlc2_geometry(24, scale=100),
        SWLConfig(threshold=20, k=2), seed=3,
    )
    trace = MobilePCWorkload(workload_params_for(spec, duration=1800.0, seed=3)).requests()
    telemetry = Telemetry.to_directory(directory, heatmap_interval=600.0)
    run_fixed_horizon(spec, trace, 3600.0, telemetry=telemetry)
    telemetry.finish()
    assert '"kind": "swl_invoke"' in (directory / "trace.jsonl").read_text()


def nftl_4ch_service(directory: Path) -> None:
    spec = ExperimentSpec(
        "nftl", scaled_mlc2_geometry(24, scale=100),
        SWLConfig(threshold=20, k=2), seed=11, channels=4,
    )
    trace = MobilePCWorkload(workload_params_for(spec, duration=1800.0, seed=3)).requests()
    rng = make_rng(spec.seed)
    endless = SegmentResampler(
        trace, rng=spawn_rng(rng, "resampler")
    ).iter_requests()
    arrivals = islice(
        poisson_arrivals(endless, 200.0, spawn_rng(rng, "arrivals")), 1500
    )
    telemetry = Telemetry.to_directory(directory, run_name="svc-golden")
    engine = ServiceEngine(
        spec.build(telemetry=telemetry), queue_depth=4,
        telemetry=telemetry, queue_sample_every=100,
    )
    engine.serve(arrivals, max_requests=1500)
    telemetry.finish()
    assert '"kind": "queue_depth"' in (directory / "trace.jsonl").read_text()


RUNS = {"ftl_1ch_swl": ftl_1ch_swl, "nftl_4ch_service": nftl_4ch_service}


def digests(run: str, directory: Path) -> dict[str, str]:
    RUNS[run](directory)
    return {
        name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
        for name in ARTIFACTS
    }


@pytest.mark.parametrize("run", sorted(RUNS))
def test_artifacts_match_golden_digests(run, tmp_path):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert digests(run, tmp_path) == golden[run]


if __name__ == "__main__":
    import tempfile

    recorded = {}
    for name in sorted(RUNS):
        with tempfile.TemporaryDirectory() as scratch:
            recorded[name] = digests(name, Path(scratch))
    GOLDEN_PATH.write_text(json.dumps(recorded, indent=2) + "\n")
    print(GOLDEN_PATH.read_text())
