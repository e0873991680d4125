"""Publish the policy-arena leaderboard into ``BENCH_PR.json``.

Runs the full tournament (:func:`repro.arena.run_arena`) — every roster
mechanism × the shared workload shapes, plus the service soak and the
fault campaign — at the same quick-mode knobs as ``perf_trajectory.py``
(48 blocks, endurance 100, one simulated day, seed 7), then merges the
result under the ``"arena"`` key and writes the markdown leaderboard to
``benchmarks/results/arena.md``.

Usage::

    PYTHONPATH=src python benchmarks/bench_arena.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.arena import arena_report, run_arena
from repro.arena.report import leaderboard_table
from repro.sim.experiment import scaled_mlc2_geometry

BENCH_PR_PATH = Path(__file__).resolve().parent.parent / "BENCH_PR.json"
REPORT_PATH = Path(__file__).resolve().parent / "results" / "arena.md"

#: Same quick-mode family as ``perf_trajectory.py``: every BENCH_PR
#: section compares like with like.
BLOCKS = 48
SCALE = 100
HORIZON = 1.0 * 86_400.0
SEED = 7
RATE = 4.0


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    geometry = scaled_mlc2_geometry(BLOCKS, scale=SCALE)
    result = run_arena(
        geometry,
        "ftl",
        horizon=HORIZON,
        rate=RATE,
        seed=SEED,
    )
    elapsed = time.perf_counter() - start

    point = {
        "generated_unix": int(time.time()),
        "config": {
            "blocks": BLOCKS,
            "scale": SCALE,
            "horizon_s": HORIZON,
            "seed": SEED,
            "rate": RATE,
        },
        "wall_clock_s": round(elapsed, 2),
        **result.as_dict(),
    }
    if BENCH_PR_PATH.exists():
        trajectory = json.loads(BENCH_PR_PATH.read_text())
    else:
        trajectory = {"schema": 1}
    trajectory["arena"] = point
    BENCH_PR_PATH.write_text(json.dumps(trajectory, indent=2) + "\n")

    REPORT_PATH.parent.mkdir(parents=True, exist_ok=True)
    REPORT_PATH.write_text(arena_report(result))

    print(leaderboard_table(result).text())
    print(f"\nmerged arena section into {BENCH_PR_PATH}")
    print(f"markdown leaderboard written to {REPORT_PATH}")
    print(f"tournament wall clock: {elapsed:.1f}s")
    return 0 if all(entry.faults_ok for entry in result.leaderboard) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
