"""Hot-path microbenchmarks and fixed-seed golden replay check.

Two jobs, both about the wear-accounting hot path (word-level
``BitArray``, incremental ``WearAccumulator``, batched page spans):

* **Microbenchmarks** — time the rewritten operations against the
  pre-rewrite reference implementations (embedded below, so before and
  after are measured in one process on one machine) and an end-to-end
  replay.  Results merge into ``BENCH_PR.json`` under ``"hotpath"``.
* **Golden replay check** — replay a tiny fixed-seed trace and hash the
  full ``SimResult.as_dict()`` (plus the sampled timeline and heatmaps).
  ``--check-golden`` fails when the hash drifts from the committed
  ``benchmarks/golden_hotpath.json``; the CI bench-smoke job runs it so
  any change to the accounting hot path that alters replayed results is
  caught at review time, not in a downstream experiment.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py                # bench + BENCH_PR.json
    PYTHONPATH=src python benchmarks/bench_hotpath.py --check-golden
    PYTHONPATH=src python benchmarks/bench_hotpath.py --update-golden
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from pathlib import Path

from repro.core.config import SWLConfig
from repro.sim.engine import Simulator, StopCondition
from repro.sim.experiment import (
    ExperimentSpec,
    scaled_mlc2_geometry,
    workload_params_for,
)
from repro.sim.metrics import EraseDistribution
from repro.traces.extend import SegmentResampler
from repro.traces.generator import MobilePCWorkload
from repro.util.bitarray import BitArray
from repro.util.rng import make_rng, spawn_rng

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_hotpath.json"
BENCH_PR_PATH = Path(__file__).resolve().parent.parent / "BENCH_PR.json"

#: Golden replay knobs: tiny geometry, ~seconds of wall clock.
GOLDEN_BLOCKS = 24
GOLDEN_SCALE = 200
GOLDEN_HORIZON = 0.05 * 86_400.0
GOLDEN_SEED = 7

#: Microbench sizing: a 64Ki-bit array is the BET of a ~4 GB device at
#: k = 0 — the size the ISSUE's 0.33 ms/popcount figure was measured on.
BET_BITS = 64 * 1024
SAMPLE_BLOCKS = 64 * 1024


# ----------------------------------------------------------------------
# Pre-rewrite reference implementations (the "before" side)
# ----------------------------------------------------------------------
_POPCOUNT = bytes(bin(value).count("1") for value in range(256))


class LegacyBitArray:
    """The historical ``bytearray`` bit array: per-byte popcount table,
    per-bit Python loop in ``next_zero``.  Byte layout identical to the
    word-level implementation (bit ``i`` -> byte ``i >> 3``, position
    ``i & 7``), so both sides operate on the same data."""

    def __init__(self, size: int) -> None:
        self.size = size
        self._bytes = bytearray((size + 7) // 8)

    @classmethod
    def from_bits(cls, bits: BitArray) -> "LegacyBitArray":
        legacy = cls(len(bits))
        legacy._bytes = bytearray(bits.to_bytes())
        return legacy

    def popcount(self) -> int:
        table = _POPCOUNT
        return sum(table[byte] for byte in self._bytes)

    def next_zero(self, start: int) -> int | None:
        data = self._bytes
        for offset in range(self.size):
            index = (start + offset) % self.size
            if not data[index >> 3] & (1 << (index & 7)):
                return index
        return None


def legacy_distribution(counts: list[int]) -> EraseDistribution:
    """The pre-rewrite ``_take_sample`` cost: a full O(num_blocks) scan
    per wear sample (float-loop deviation as the original had)."""
    import math

    total = sum(counts)
    average = total / len(counts)
    variance = sum((count - average) ** 2 for count in counts) / len(counts)
    return EraseDistribution(
        average=average,
        deviation=math.sqrt(variance),
        maximum=max(counts),
        minimum=min(counts),
        total=total,
        blocks=len(counts),
    )


def _best_per_call(fn, *, number: int, repeats: int = 5) -> float:
    """Seconds per call: best of ``repeats`` timed batches of ``number``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - start) / number)
    return best


# ----------------------------------------------------------------------
# Microbenchmarks
# ----------------------------------------------------------------------
def bench_popcount() -> dict[str, object]:
    rng = random.Random(11)
    bits = BitArray(BET_BITS)
    for index in range(BET_BITS):
        if rng.random() < 0.5:
            bits.set(index)
    legacy = LegacyBitArray.from_bits(bits)
    assert bits.popcount() == legacy.popcount()
    before = _best_per_call(legacy.popcount, number=20)
    after = _best_per_call(bits.popcount, number=2000)
    return {
        "bits": BET_BITS,
        "before_us": round(before * 1e6, 3),
        "after_us": round(after * 1e6, 3),
        "speedup": round(before / after, 1),
    }


def bench_next_zero() -> dict[str, object]:
    # Worst realistic shape: a long run of set flags before the next
    # zero (late in a resetting interval, most sets already handled).
    bits = BitArray(BET_BITS)
    bits.fill()
    bits.clear(BET_BITS - 1)
    legacy = LegacyBitArray.from_bits(bits)
    assert bits.next_zero(0) == legacy.next_zero(0) == BET_BITS - 1
    before = _best_per_call(lambda: legacy.next_zero(0), number=5)
    after = _best_per_call(lambda: bits.next_zero(0), number=2000)
    return {
        "bits": BET_BITS,
        "scan_length": BET_BITS - 1,
        "before_us": round(before * 1e6, 3),
        "after_us": round(after * 1e6, 3),
        "speedup": round(before / after, 1),
    }


def bench_take_sample() -> dict[str, object]:
    from repro.sim.metrics import WearAccumulator

    rng = random.Random(13)
    counts = [0] * SAMPLE_BLOCKS
    wear = WearAccumulator(SAMPLE_BLOCKS)
    for _ in range(4 * SAMPLE_BLOCKS):
        block = rng.randrange(SAMPLE_BLOCKS)
        wear.record_erase(block, counts[block])
        counts[block] += 1
    reference = EraseDistribution.from_counts(counts)
    assert wear.distribution() == reference
    before = _best_per_call(lambda: legacy_distribution(counts), number=10)
    after = _best_per_call(wear.distribution, number=2000)
    return {
        "blocks": SAMPLE_BLOCKS,
        "before_us": round(before * 1e6, 3),
        "after_us": round(after * 1e6, 3),
        "speedup": round(before / after, 1),
    }


def bench_replay() -> dict[str, object]:
    """End-to-end req/s on the golden configuration (sampling enabled, so
    the run exercises the batched page spans and the O(1) sampling)."""
    result, elapsed = _golden_replay("ftl")
    return {
        "requests": result.requests,
        "wall_s": round(elapsed, 3),
        "requests_per_s": round(result.requests / elapsed, 1),
    }


# ----------------------------------------------------------------------
# Golden replay
# ----------------------------------------------------------------------
def _golden_replay(driver: str, swl=None):
    geometry = scaled_mlc2_geometry(GOLDEN_BLOCKS, scale=GOLDEN_SCALE)
    if swl is None:
        swl = SWLConfig(threshold=100, k=0)
    spec = ExperimentSpec(driver, geometry, swl, seed=GOLDEN_SEED)
    params = workload_params_for(
        spec, duration=GOLDEN_HORIZON, seed=GOLDEN_SEED + 1
    )
    workload = MobilePCWorkload(params)
    simulator = Simulator(
        spec.build(),
        skip_reads=True,
        sample_interval=GOLDEN_HORIZON / 8,
        heatmap_interval=GOLDEN_HORIZON / 4,
        heatmap_bins=8,
    )
    start = time.perf_counter()
    for request in workload.prefill_requests():
        simulator.apply(request)
    rng = spawn_rng(make_rng(spec.seed), "resampler")
    endless = SegmentResampler(workload.requests(), rng=rng)
    result = simulator.run(
        endless.iter_requests(),
        StopCondition(max_time=GOLDEN_HORIZON, max_requests=10_000_000),
        label=spec.label(),
    )
    return result, time.perf_counter() - start


def golden_digest(swl=None) -> dict[str, object]:
    """Replay both drivers and hash everything the engine reports.

    ``swl`` substitutes the leveler configuration (default: the classic
    ``SWLConfig``); the scale gate passes ``LevelerSpec(kind="swl")`` to
    prove the registry path replays the very same digest.
    """
    payload: dict[str, object] = {}
    for driver in ("ftl", "nftl"):
        result, _ = _golden_replay(driver, swl=swl)
        payload[driver] = {
            "as_dict": result.as_dict(),
            "timeline": [
                [s.time, s.average, s.deviation, s.maximum, s.total_erases]
                for s in result.timeline
            ],
            "heatmaps": [h.as_dict() for h in result.heatmaps],
        }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return {
        "schema": 1,
        "config": {
            "blocks": GOLDEN_BLOCKS,
            "scale": GOLDEN_SCALE,
            "horizon_s": GOLDEN_HORIZON,
            "seed": GOLDEN_SEED,
        },
        "result_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
    }


def check_golden() -> int:
    if not GOLDEN_PATH.exists():
        print(f"no golden at {GOLDEN_PATH}; run --update-golden first")
        return 2
    committed = json.loads(GOLDEN_PATH.read_text())
    current = golden_digest()
    if current["config"] != committed.get("config"):
        print("golden config mismatch; regenerate with --update-golden")
        print(f"  committed: {committed.get('config')}")
        print(f"  current:   {current['config']}")
        return 2
    if current["result_sha256"] != committed.get("result_sha256"):
        print("FAIL: replayed results drifted from the committed golden")
        print(f"  committed: {committed.get('result_sha256')}")
        print(f"  current:   {current['result_sha256']}")
        print(
            "If the drift is intentional (a documented behaviour change), "
            "refresh with --update-golden and explain it in the PR."
        )
        return 1
    print(f"golden OK ({current['result_sha256'][:16]}…)")
    return 0


def update_golden() -> int:
    digest = golden_digest()
    GOLDEN_PATH.write_text(json.dumps(digest, indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH} ({digest['result_sha256'][:16]}…)")
    return 0


# ----------------------------------------------------------------------
def run_benches() -> int:
    point = {
        "generated_unix": int(time.time()),
        "popcount": bench_popcount(),
        "next_zero": bench_next_zero(),
        "take_sample": bench_take_sample(),
        "replay": bench_replay(),
    }
    if BENCH_PR_PATH.exists():
        trajectory = json.loads(BENCH_PR_PATH.read_text())
    else:
        trajectory = {"schema": 1}
    trajectory["hotpath"] = point
    BENCH_PR_PATH.write_text(json.dumps(trajectory, indent=2) + "\n")
    for name in ("popcount", "next_zero", "take_sample"):
        bench = point[name]
        print(
            f"  {name}: {bench['before_us']} us -> {bench['after_us']} us "
            f"({bench['speedup']}x)"
        )
    print(f"  replay: {point['replay']['requests_per_s']} req/s")
    print(f"merged hotpath section into {BENCH_PR_PATH}")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--check-golden", action="store_true",
        help="verify the fixed-seed replay hash against the committed golden",
    )
    group.add_argument(
        "--update-golden", action="store_true",
        help="regenerate benchmarks/golden_hotpath.json",
    )
    args = parser.parse_args(argv[1:])
    if args.check_golden:
        return check_golden()
    if args.update_golden:
        return update_golden()
    return run_benches()


if __name__ == "__main__":
    sys.exit(main(sys.argv))
