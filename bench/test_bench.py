"""Checks of the benchmark's own machinery, at tiny request counts.

Run with ``PYTHONPATH=src python -m pytest bench -q`` (under 30 s).
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import re
from functools import lru_cache
from pathlib import Path

import pytest

from repro.ftl.factory import StorageBackend
from repro.service.arrival import poisson_arrivals
from repro.service.engine import ServiceEngine
from repro.sim.core import RequestCore
from repro.traces.model import Op, Request
from repro.util.rng import make_rng

from bench import compare
from bench.layers import NullBackend, measure_layers, traced_repeat
from bench.measure import measure, run_repeat
from bench.tracing import Tracer
from bench.workloads import BY_NAME, WORKLOADS, Inputs, Workload, make_inputs

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Requests per timed region in these tests; enough for GC to run and,
#: on the hotspot row, for the leveler to force recycles.
TINY = 400


@lru_cache(maxsize=None)
def tiny(name: str) -> tuple[Workload, Inputs]:
    workload = dataclasses.replace(BY_NAME[name], requests=TINY)
    return workload, make_inputs(workload, seed=3)


def test_null_backend_serves_both_engines() -> None:
    assert isinstance(NullBackend(), StorageBackend)
    requests = [
        Request(0.1 * i, Op.WRITE if i % 2 else Op.READ, 64 * i, 1 + i % 40)
        for i in range(200)
    ]
    core = RequestCore(NullBackend(), sample_interval=5.0)
    for request in requests:
        core.apply(request)
    assert core.result().requests == len(requests)
    engine = ServiceEngine(NullBackend(num_shards=4), queue_depth=2)
    served = engine.serve(
        poisson_arrivals(requests, 1000.0, make_rng(1)), max_requests=len(requests)
    )
    assert served.requests == len(requests)
    assert sum(channel.served for channel in served.channel_stats) == len(requests)


@pytest.mark.parametrize("name", [workload.name for workload in WORKLOADS])
def test_proxies_are_transparent_and_self_times_add_up(name: str) -> None:
    workload, inputs = tiny(name)
    untraced = run_repeat(workload, inputs)
    tracer = Tracer()
    traced = traced_repeat(workload, inputs, tracer)
    assert not untraced.violations and not traced.violations
    assert traced.digest == untraced.digest
    root = tracer.totals["run"]
    assert root[0] == 1
    self_sum = sum(entry[2] for entry in tracer.totals.values())
    assert self_sum == pytest.approx(root[1], rel=0.01)
    assert tracer.count("sim.apply") == TINY
    if workload.channels > 1:
        assert tracer.count("array.dispatch") >= TINY
    else:
        assert "array.dispatch" not in tracer.totals


def test_hotspot_spans_separate_cleaner_from_leveler() -> None:
    workload, inputs = tiny("hotspot_swl_nftl_1ch")
    tracer = Tracer()
    traced = traced_repeat(workload, inputs, tracer)
    recycles = traced.after.layer["forced_recycles"]
    assert recycles > 0
    assert tracer.count("ftl.swl_recycle") >= recycles
    assert tracer.count("ftl.write+gc") > 0
    assert tracer.swl_busy_s > 0.0
    # The leveler runs inside the chip's erase, never beside it.
    by_id = {record[3]: record for record in tracer.records}
    parents = {
        by_id[record[4]][0]
        for record in tracer.records
        if record[0] == "core.on_block_erased" and record[4] in by_id
    }
    assert parents == {"flash.erase"}


@pytest.mark.parametrize(
    "name", ["hotspot_swl_nftl_1ch", "service_poisson_nftl_4ch"]
)
def test_every_benchmark_metric_is_reported(name: str, tmp_path: Path) -> None:
    workload, inputs = tiny(name)
    end_to_end = measure(workload, inputs, seconds=0.01)
    layers = measure_layers(workload, inputs, tmp_path / "trace.json")
    assert end_to_end["correct"], end_to_end["problems"]
    assert layers["correct"], layers["problems"]
    assert end_to_end["failed"] == 0 and end_to_end["attempted"] > 3 * TINY
    assert layers["digest"] == end_to_end["digest"]
    for section, detail in (("end_to_end", end_to_end), ("per_layer", layers)):
        for metric in BENCHMARK[section]:
            assert math.isfinite(detail["metrics"][metric["name"]]), metric["name"]
    events = json.loads((tmp_path / "trace.json").read_text())["traceEvents"]
    assert events and {"name", "ts", "dur", "args"} <= events[0].keys()


def test_benchmark_json_names_and_limits() -> None:
    assert BENCHMARK["paths"] == ["bench"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == [w.name for w in WORKLOADS]
    assert all(0 < len(w["why"]) <= 200 for w in BENCHMARK["workloads"])
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in BENCHMARK[section]
    ]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def _result(host_req_per_s: float = 1000.0, erase_max: int = 12,
            elapsed: tuple[float, ...] = (1.00, 1.01, 1.02, 1.05)) -> dict:
    metrics = {metric["name"]: 1.0 for metric in BENCHMARK["end_to_end"]}
    metrics.update(host_req_per_s=host_req_per_s, sim_erase_max=erase_max)
    return {
        "provenance": {"seed": 1, "git_revision": None},
        "workloads": {"w": {"end_to_end": {
            "metrics": metrics,
            "failed_frac": 0.0,
            "digest": "0" * 64,
            "host": {
                "elapsed_s": {"raw": list(elapsed)},
                "setup_s": {"raw": [1.0, 1.0, 1.0]},
            },
        }}},
    }


def _verdicts(a: dict, b: dict) -> dict[str, str]:
    return {row.metric: row.verdict for row in compare.compare(a, b, BENCHMARK)}


def test_compare_passes_identical_inputs(tmp_path: Path) -> None:
    verdicts = _verdicts(_result(), copy.deepcopy(_result()))
    assert set(verdicts.values()) == {"ok"}
    assert {"failed_frac", "sim_erase_max", "host_req_per_s"} <= verdicts.keys()
    path = tmp_path / "a.json"
    path.write_text(json.dumps(_result()))
    assert compare.main([str(path), str(path)]) == 0


def test_compare_flags_a_throughput_drop(tmp_path: Path) -> None:
    bound = next(
        m["bound"] for m in BENCHMARK["end_to_end"] if m["name"] == "host_req_per_s"
    )
    within = _result(1000.0 * (1 - bound / 2), elapsed=(1.10, 1.11, 1.12, 1.15))
    assert _verdicts(_result(), within)["host_req_per_s"] == "ok"
    drop = bound + 0.05
    slower = _result(
        1000.0 * (1 - drop),
        elapsed=tuple(t / (1 - drop) for t in (1.00, 1.01, 1.02, 1.05)),
    )
    verdicts = _verdicts(_result(), slower)
    assert verdicts.pop("host_req_per_s") == "worse"
    assert set(verdicts.values()) == {"ok"}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_result()))
    b.write_text(json.dumps(slower))
    assert compare.main([str(a), str(b)]) == 1
    # The same drop amid repeats that scatter by more than the bound.
    noisy = _result(1000.0 * (1 - drop), elapsed=(1.00, 2.40, 2.60, 2.80))
    assert _verdicts(_result(), noisy)["host_req_per_s"] == "unresolved"


def test_compare_flags_one_more_erase_and_any_failure() -> None:
    assert _verdicts(_result(), _result(erase_max=13))["sim_erase_max"] == "worse"
    failing = _result()
    failing["workloads"]["w"]["end_to_end"]["failed_frac"] = 1e-6
    assert _verdicts(_result(), failing)["failed_frac"] == "worse"


def test_compare_refuses_different_seeds(tmp_path: Path) -> None:
    other = _result()
    other["provenance"]["seed"] = 2
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_result()))
    b.write_text(json.dumps(other))
    with pytest.raises(SystemExit):
        compare.main([str(a), str(b)])
