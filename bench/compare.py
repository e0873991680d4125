"""Compare two result files of ``bench.run``: ``python -m bench.compare A B``.

One row per workload x end-to-end metric: A, B, the relative change (as a
worsening: positive is worse whichever way the metric points), the bound,
and a verdict:

``ok``          B is no worse than A by more than the bound;
``worse``       it is — the command then exits non-zero;
``unresolved``  the repeats of a host-time metric scatter by more than
                the bound, so neither can be said, unless every repeat of
                one side beats every repeat of the other.

Both files must come from the same ``--seed``: simulated statistics repeat
exactly at a fixed seed, so any difference between them is the code's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent

#: Metrics judged here but absent from ``BENCHMARK.json``'s list, which
#: must hold across *different* seeds: ``failed_frac`` is 0 on every
#: healthy run (a relative bound has nothing to scale), and the maximum
#: erase count swings ~19 % between seeds on the hotspot row.  At equal
#: seeds both compare exactly.
SAME_SEED_METRICS = (
    {"name": "failed_frac", "unit": "ratio", "better": "lower", "bound": 0.0},
    {"name": "sim_erase_max", "unit": "erases", "better": "lower", "bound": 0.05},
)
#: ``setup_s`` differences below this many seconds are ignored.
SETUP_FLOOR_S = 0.05


@dataclass
class Row:
    workload: str
    metric: str
    unit: str
    a: float
    b: float
    change: float
    bound: float
    verdict: str


def _value(entry: dict[str, Any], name: str) -> float:
    detail = entry["end_to_end"]
    return detail[name] if name == "failed_frac" else detail["metrics"][name]


def _repeats(entry: dict[str, Any], name: str) -> list[float] | None:
    """Raw per-repeat host seconds behind a metric (lower is better)."""
    if name == "host_req_per_s":
        return entry["end_to_end"]["host"]["elapsed_s"]["raw"]
    return None


def _scatter(values: list[float]) -> float:
    """How far the fastest quarter of repeats sits above the fastest one.

    Host metrics are computed from the minimum; it is resolved when the
    repeats nearest to it agree.
    """
    return statistics.quantiles(values, n=4)[0] / min(values) - 1.0


def judge(
    metric: dict[str, Any], a_entry: dict[str, Any], b_entry: dict[str, Any]
) -> tuple[float, str]:
    """Relative worsening from A to B, and the verdict."""
    name, bound = metric["name"], metric["bound"]
    a, b = _value(a_entry, name), _value(b_entry, name)
    worsening = b - a if metric["better"] == "lower" else a - b
    change = worsening / abs(a) if a else (float("inf") if worsening > 0 else 0.0)
    if name == "setup_s" and abs(b - a) < SETUP_FLOOR_S:
        return change, "ok"
    a_raw, b_raw = _repeats(a_entry, name), _repeats(b_entry, name)
    if a_raw and b_raw and max(_scatter(a_raw), _scatter(b_raw)) > bound:
        if max(b_raw) < min(a_raw):
            return change, "ok"
        if change > bound and min(b_raw) > max(a_raw):
            return change, "worse"
        return change, "unresolved"
    return change, "worse" if change > bound else "ok"


def compare(a: dict[str, Any], b: dict[str, Any], benchmark: dict[str, Any]) -> list[Row]:
    """Every workload present in both files against every metric."""
    metrics = [*benchmark["end_to_end"], *SAME_SEED_METRICS]
    rows = []
    for name, a_entry in a["workloads"].items():
        b_entry = b["workloads"].get(name)
        if b_entry is None:
            continue
        for metric in metrics:
            change, verdict = judge(metric, a_entry, b_entry)
            rows.append(Row(
                name, metric["name"], metric["unit"],
                _value(a_entry, metric["name"]), _value(b_entry, metric["name"]),
                change, metric["bound"], verdict,
            ))
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    a = json.loads(args.a.read_text())
    b = json.loads(args.b.read_text())
    if a["provenance"]["seed"] != b["provenance"]["seed"]:
        parser.error(
            f"seeds differ ({a['provenance']['seed']} vs "
            f"{b['provenance']['seed']}): simulated statistics are only "
            "comparable at equal seeds"
        )
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(a, b, benchmark)
    print(f"A: {args.a}  rev {a['provenance']['git_revision']}")
    print(f"B: {args.b}  rev {b['provenance']['git_revision']}")
    workload = None
    for row in rows:
        if row.workload != workload:
            workload = row.workload
            same = (
                a["workloads"][workload]["end_to_end"]["digest"]
                == b["workloads"][workload]["end_to_end"]["digest"]
            )
            print(f"== {workload}  simulated statistics "
                  f"{'identical' if same else 'CHANGED'}")
        print(
            f"  {row.metric:22s} {row.a:>14.6g} {row.b:>14.6g} {row.unit:8s}"
            f" {row.change:+8.2%}  bound {row.bound:4.0%}  {row.verdict}"
        )
    worse = [row for row in rows if row.verdict == "worse"]
    unresolved = sum(row.verdict == "unresolved" for row in rows)
    print(f"{len(rows)} rows: {len(worse)} worse, {unresolved} unresolved")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
