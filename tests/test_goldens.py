"""The golden registry: every pinned digest of the project's behaviour.

``tests/goldens.json`` maps a name to the value its recipe below must
reproduce: a SHA-256 digest, the ``[length, digest]`` of a generated
trace, the ``[injector seeds, digest]`` of a faulted build, or the
per-file digests of a telemetry directory.  ``test_golden[<name>]``
recomputes one entry; no digest lives anywhere else
(:func:`test_no_digest_outside_the_registry`).

A change that moves an entry is a behaviour change.  When it is meant,
re-record every entry at once and paste the old -> new table this prints
into CHANGES.md::

    PYTHONPATH=src python -m tests.test_goldens
"""

from __future__ import annotations

import ast
import hashlib
import io
import json
import re
import tempfile
from contextlib import redirect_stdout
from itertools import islice
from pathlib import Path
from typing import Callable

import pytest

from benchmarks.bench_hotpath import golden_replay
from repro.ckpt import encode_payload
from repro.ckpt.runner import trace_digest
from repro.cli import main
from repro.core.config import SWLConfig
from repro.fault.plan import FaultPlan
from repro.obs import Telemetry
from repro.service import ServiceEngine, poisson_arrivals
from repro.sim.experiment import (
    ExperimentSpec,
    run_fixed_horizon,
    run_replay,
    scaled_mlc2_geometry,
    workload_params_for,
)
from repro.traces.extend import SegmentResampler
from repro.traces.generator import DAY, MobilePCWorkload, WorkloadParams
from repro.traces.model import Trace
from repro.util.rng import below, make_rng, spawn_rng
from repro.util.tables import Table

ROOT = Path(__file__).resolve().parent.parent
GOLDENS_PATH = Path(__file__).with_name("goldens.json")
RERECORD = "PYTHONPATH=src python -m tests.test_goldens"


def recorded() -> dict[str, object]:
    """The registry as committed: entry name -> pinned value."""
    return json.loads(GOLDENS_PATH.read_text())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical_sha256(value: object) -> str:
    """Digest of ``value``'s canonical JSON (sorted keys, no spaces)."""
    return sha256(
        json.dumps(value, sort_keys=True, separators=(",", ":")).encode()
    )


def result_sha256(result) -> str:
    return canonical_sha256(result.as_dict())


# ----------------------------------------------------------------------
# Replays
# ----------------------------------------------------------------------
def hotpath_replay() -> str:
    """Both drivers of ``benchmarks/bench_hotpath.py``'s fixed-seed replay,
    with the sampled timeline and heatmaps."""
    payload = {}
    for driver in ("ftl", "nftl"):
        result, _ = golden_replay(driver)
        payload[driver] = {
            "as_dict": result.as_dict(),
            "timeline": [
                [s.time, s.average, s.deviation, s.maximum, s.total_erases]
                for s in result.timeline
            ],
            "heatmaps": [h.as_dict() for h in result.heatmaps],
        }
    return canonical_sha256(payload)


def ckpt_spec() -> ExperimentSpec:
    """The replay the checkpoint suite interrupts and resumes."""
    return ExperimentSpec(
        "ftl",
        scaled_mlc2_geometry(32, scale=100),
        SWLConfig(enabled=True, threshold=10, k=0),
        seed=7,
    )


def ckpt_trace() -> Trace:
    params = workload_params_for(ckpt_spec(), duration=1200.0, seed=3)
    return MobilePCWorkload(params).requests()


def ckpt_replay() -> str:
    return result_sha256(run_replay(ckpt_spec(), ckpt_trace()))


def faulted_build(channels: int) -> list[object]:
    """``ExperimentSpec.build(fault_plan=...)`` after a fault-injected soak:
    the per-shard injector seeds and the backend snapshot's digest.

    Recorded at 13b1132 from the since-deleted
    ``ckpt.runner.build_spec_backend(spec, fault_plan=plan)``; re-recorded
    when the leveler snapshot lost its ``"trigger"`` entry.

    The soak never runs SWL-Procedure: at ``threshold=8, k=1`` over 6,000
    random writes the chips see 41 (one channel) and 2 (four channels)
    erases, no procedure run and no forced recycle.
    :func:`faulted_recycles` is the entry that pins the leveler's path.
    """
    plan = FaultPlan(seed=5, erase_fail_prob=0.05, program_fail_prob=0.0003)
    spec = ExperimentSpec(
        "ftl",
        scaled_mlc2_geometry(32, scale=100),
        SWLConfig(threshold=8, k=1),
        seed=21,
        channels=channels,
    )
    backend = spec.build(fault_plan=plan)
    shards = getattr(backend, "shards", [backend])
    pages = backend.num_logical_pages
    rng = make_rng(9)
    for _ in range(6000):
        backend.write_pages([rng.randrange(pages)])
    assert backend.fault_stats()["program_faults"] > 0
    return [
        [shard.flash.injector.plan.seed for shard in shards],
        sha256(encode_payload(backend.snapshot_state())),
    ]


def faulted_recycles() -> dict[str, list[str]]:
    """Both drivers through forced recycles, program faults and
    retirements: the digests of each backend's snapshot and layer stats.

    One sequential pass over the logical space, then 20,000 single-page
    writes to its first 5 %, with SWL-Procedure at ``T = 2`` and program
    faults injected.  Some faults land inside a forced recycle.
    """
    digests = {}
    for driver in ("ftl", "nftl"):
        spec = ExperimentSpec(
            driver,
            scaled_mlc2_geometry(64, scale=100),
            SWLConfig(threshold=2, k=0),
            seed=21,
            op_ratio=0.25,
        )
        backend = spec.build(fault_plan=FaultPlan(seed=5, program_fail_prob=2e-4))
        pages = backend.num_logical_pages
        for lpn in range(pages):
            backend.write_pages([lpn])
        hot = pages // 20
        rng = make_rng(9)
        for _ in range(20000):
            backend.write_pages([below(rng, hot)])
        stats = backend.layer_stats()
        assert stats["forced_recycles"] > 0, driver
        assert stats["program_faults"] > 0, driver
        assert stats.get("retired", 0) > 0, driver
        digests[driver] = [
            sha256(encode_payload(backend.snapshot_state())),
            canonical_sha256(stats),
        ]
    return digests


# ----------------------------------------------------------------------
# Telemetry artifacts: the bytes Telemetry.to_directory writes, recorded
# at 08b1d6f, before repro.obs lost its synchronous and tally delivery
# modes
# ----------------------------------------------------------------------
ARTIFACTS = ("trace.jsonl", "trace.chrome.json", "metrics.prom")


def telemetry_digests(run: Callable[[Path], None]) -> dict[str, str]:
    """Per-file digests of the directory ``run`` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        run(directory)
        return {name: sha256((directory / name).read_bytes())
                for name in ARTIFACTS}


def obs_ftl_1ch_swl(directory: Path) -> None:
    """A 1-channel FTL replay in which SWL-Procedure fires."""
    spec = ExperimentSpec(
        "ftl", scaled_mlc2_geometry(24, scale=100),
        SWLConfig(threshold=20, k=2), seed=3,
    )
    trace = MobilePCWorkload(workload_params_for(spec, duration=1800.0, seed=3)).requests()
    telemetry = Telemetry.to_directory(directory, heatmap_interval=600.0)
    run_fixed_horizon(spec, trace, 3600.0, telemetry=telemetry)
    telemetry.finish()
    assert '"kind": "swl_invoke"' in (directory / "trace.jsonl").read_text()


def obs_nftl_4ch_service(directory: Path) -> None:
    """A 4-channel NFTL run through ServiceEngine (shard clocks,
    ``QueueDepth`` samples)."""
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


# ----------------------------------------------------------------------
# Generated traces, recorded at 752a69a, when ``requests()`` still built
# the trace an object at a time
# ----------------------------------------------------------------------
TRACES = {
    # bench/workloads.py's base trace (BASE_TRACE_SEED, 256 blocks)
    "bench": dict(total_sectors=124_416, duration=DAY, seed=20070604),
    # 151 requests belong to scheduled static rewrites
    "static_rewrites": dict(total_sectors=131_072, duration=4 * 3600.0,
                            seed=11, cold_write_period=600.0),
    # no hot extent is carved (hot target 0): the smallest one is relabelled
    "hot_relabel": dict(total_sectors=2048, duration=2 * 3600.0, seed=5,
                        hot_fraction=0.001, cold_write_period=1800.0),
    # no warm extent: non-hot writes fall back to the hot pool
    "no_warm": dict(total_sectors=2048, duration=3600.0, seed=1),
    "defaults": dict(total_sectors=65_536, duration=3600.0, seed=1),
}


def generated_trace(kwargs: dict[str, object]) -> list[object]:
    trace = MobilePCWorkload(WorkloadParams(**kwargs)).requests()
    assert type(trace) is Trace and trace.time_ordered
    return [len(trace), trace_digest(trace)]


# ----------------------------------------------------------------------
# The CLI smokes CI runs, in this process
# ----------------------------------------------------------------------
def console(*argv: str) -> str:
    """Digest of what ``repro <argv>`` prints; the command must exit 0."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(list(argv)) == 0
    return sha256(out.getvalue().encode())


def arena_json() -> str:
    """Digest of the ``--json`` file of CI's policy-arena smoke."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "arena-smoke.json"
        with redirect_stdout(io.StringIO()):
            assert main([
                "arena", "--levelers", "baseline", "swl", "dual-pool",
                "cache-avoid", "softwear", "--workloads", "hotspot",
                "sequential", "--blocks", "24", "--scale", "100",
                "--horizon-days", "0.02", "--service-requests", "400",
                "--no-faults", "--seed", "7", "--json", str(path),
            ]) == 0
        return sha256(path.read_bytes())


FAULTS_SMOKE = ("--blocks", "32", "--soak-writes", "800", "--seed", "3")
ENDURE_SMALL = (
    "endure", "--blocks", "24", "--scale", "100", "--channels", "1",
    "--shapes", "hotspot", "sequential", "--horizon-days", "0.02",
    "--seed", "7",
)

RECIPES: dict[str, Callable[[], object]] = {
    "replay/hotpath": hotpath_replay,
    "replay/ckpt": ckpt_replay,
    "build/faulted-1ch": lambda: faulted_build(1),
    "build/faulted-4ch": lambda: faulted_build(4),
    "build/faulted-recycles": faulted_recycles,
    "obs/ftl_1ch_swl": lambda: telemetry_digests(obs_ftl_1ch_swl),
    "obs/nftl_4ch_service": lambda: telemetry_digests(obs_nftl_4ch_service),
    **{f"trace/{name}": (lambda kwargs=kwargs: generated_trace(kwargs))
       for name, kwargs in TRACES.items()},
    "cli/arena-smoke": arena_json,
    "cli/faults-ftl": lambda: console("faults", "--driver", "ftl", *FAULTS_SMOKE),
    "cli/faults-nftl": lambda: console("faults", "--driver", "nftl", *FAULTS_SMOKE),
    "cli/endure-small": lambda: console(*ENDURE_SMALL),
}


@pytest.mark.parametrize("name", sorted(RECIPES))
def test_golden(name):
    assert RECIPES[name]() == recorded().get(name), (
        f"golden {name!r} drifted from tests/goldens.json; if the "
        f"behaviour change is intended, re-record with `{RERECORD}` "
        "and explain it in CHANGES.md"
    )


def test_endure_small_with_workers_matches_golden():
    """``--workers 2`` runs the cells under the campaign supervisor, in
    worker processes, and prints what the serial run pinned."""
    assert console(*ENDURE_SMALL, "--workers", "2") == (
        recorded()["cli/endure-small"]
    )


def test_every_entry_has_a_recipe():
    assert sorted(recorded()) == sorted(RECIPES), (
        f"tests/goldens.json and RECIPES disagree; re-record with `{RERECORD}`"
    )


DIGEST = re.compile(r"[0-9a-fA-F]{64}")


def test_no_digest_outside_the_registry():
    """No 64-hex-digit string literal in tests/, scripts/ or benchmarks/."""
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for folder in ("tests", "scripts", "benchmarks")
        for path in sorted((ROOT / folder).glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and DIGEST.search(node.value)
    ]
    assert not found, f"pin these in tests/goldens.json instead: {found}"


if __name__ == "__main__":
    def short(value: object) -> str:
        return re.sub(r"([0-9a-f]{16})[0-9a-f]{48}", r"\1…",
                      json.dumps(value))

    old = recorded()
    new = {name: recipe() for name, recipe in sorted(RECIPES.items())}
    rows = [
        [name, short(old.get(name)), short(new.get(name)),
         "unchanged" if old.get(name) == new.get(name) else "CHANGED"]
        for name in sorted(old.keys() | new.keys())
    ]
    GOLDENS_PATH.write_text(json.dumps(new, indent=2, ensure_ascii=False) + "\n")
    print(Table(["entry", "old", "new", "status"], rows).markdown())
