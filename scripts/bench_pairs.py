"""Alternated parent/change pairs of benchmark workloads, row by row.

Runs each checkout's *own* ``bench/run.py --trace 0`` — so each side
measures its own source with its own copy of the benchmark — in
alternating order (parent first in odd pairs, change first in even ones),
and prints what the choosing-metrics rule for claiming a gain asks for:
every run made, each side's median and quartiles, the pairs each side
won, and whether the medians lie further apart than the distance between
the parent's quartiles.  Simulated statistics are compared by digest
(between the sides, and against ``bench/expected.json`` where the seed is
pinned there); a failed output check on either side is reported.

``--workload`` repeats, and ``--workload all`` takes every row of
``BENCHMARK.json``: the no-regression sweep is then one command.  The
run closes with one table — per row and host-side end-to-end metric the
two medians, the pairs the change won, and a verdict against that
metric's ``bound`` in ``BENCHMARK.json``:

* ``better`` — every run of the change beats every run of the parent, or
  at least ten pairs were run, the change won nine tenths of them and the
  medians lie further apart than the parent's quartiles;
* ``unresolved: spread wider than bound`` — not that, and the distance
  between either side's quartiles exceeds the bound (relative to the
  parent's median), so these runs cannot tell "unchanged" from "moved";
  ``(median worse than bound)`` is appended when it is;
* ``worse than bound`` — the spread is inside the bound and the change's
  median is worse than the parent's by more than it;
* ``within bound`` — otherwise.

Fewer than three pairs get no verdict.

Usage::

    python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W
                                  [--workload W2 ... | --workload all]
                                  --pairs N [--seed S] [--seconds T]

Exit status is 1 when any run was incorrect or the simulated statistics
differ, else 0: whether a gain may be claimed is the reader's call, made
on the printed numbers.  Do not edit either checkout while this runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any


def run_once(
    checkout: Path, workload: str, seed: int, seconds: float | None
) -> dict[str, Any]:
    """One ``bench/run.py`` run in ``checkout``; its detail record."""
    with tempfile.TemporaryDirectory() as scratch:
        detail = Path(scratch) / "detail.json"
        command = [
            sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed), "--trace", "0", "--detail", str(detail),
        ]
        if seconds is not None:
            command += ["--seconds", str(seconds)]
        subprocess.run(command, cwd=checkout, check=True, stdout=subprocess.DEVNULL)
        return json.loads(detail.read_text())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median, upper quartile (all the value when alone)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, mid, high


def report_metric(
    metric: dict[str, Any], parent: list[float], change: list[float]
) -> tuple[float, float, str, int, str]:
    """Print medians, quartiles, pairs won and the IQR rule for one metric.

    Returns the summary table's cells: both medians, their ratio, the pairs
    the change won, and the verdict against the metric's bound (module
    docstring).
    """
    sign = 1 if metric["better"] == "higher" else -1
    won = sum(sign * c > sign * p for p, c in zip(parent, change))
    lost = sum(sign * c < sign * p for p, c in zip(parent, change))
    p_low, p_mid, p_high = quartiles(parent)
    c_low, c_mid, c_high = quartiles(change)
    gain = sign * (c_mid - p_mid)
    apart = abs(c_mid - p_mid) > p_high - p_low
    ratio = f"{c_mid / p_mid:.3f}x" if p_mid else "n/a"
    print(f"== {metric['name']} ({metric['unit']}, {metric['better']} is better)")
    print(f"  parent  median {p_mid:.6g}  quartiles {p_low:.6g} .. {p_high:.6g}")
    print(f"  change  median {c_mid:.6g}  quartiles {c_low:.6g} .. {c_high:.6g}"
          f"  ({ratio} of parent)")
    print(f"  pairs: change won {won}, parent won {lost}, "
          f"ties {len(parent) - won - lost}, of {len(parent)}")
    print(f"  medians apart by {abs(c_mid - p_mid):.6g} "
          f"({'better' if gain > 0 else 'worse' if gain < 0 else 'equal'}); "
          f"parent IQR {p_high - p_low:.6g}: "
          f"{'more' if apart else 'NOT more'} "
          "than the parent's own spread")

    allowed = metric["bound"] * abs(p_mid)
    if len(parent) < 3:  # one or two readings a side separate by chance
        verdict = "fewer than 3 pairs: no verdict"
    elif min(sign * c for c in change) > max(sign * p for p in parent) or (
        gain > 0 and apart and len(parent) >= 10 and won * 10 >= len(parent) * 9
    ):
        verdict = "better"
    elif max(p_high - p_low, c_high - c_low) > allowed:
        verdict = "unresolved: spread wider than bound" + (
            " (median worse than bound)" if -gain > allowed else "")
    elif -gain > allowed:
        verdict = "worse than bound"
    else:
        verdict = "within bound"
    return p_mid, c_mid, ratio, won, verdict


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True,
                        help="benchmark row; repeat for several, 'all' for every row")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="timed seconds per run (default: each benchmark's own)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    rows = [row["name"] for row in benchmark["workloads"]]
    workloads = rows if "all" in args.workload else args.workload
    unknown = sorted(set(workloads) - set(rows))
    if unknown:
        parser.error(f"not in BENCHMARK.json: {', '.join(unknown)}")
    host_metrics = [
        metric for metric in benchmark["end_to_end"]
        if not metric["name"].startswith("sim_")
    ]

    sides = {"parent": args.parent, "change": args.change}
    problems: list[str] = []
    table = []
    for workload in workloads:
        runs: dict[str, list[dict[str, Any]]] = {"parent": [], "change": []}
        for pair in range(1, args.pairs + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                detail = run_once(sides[side], workload, args.seed, args.seconds)
                runs[side].append(detail)
                values = "  ".join(
                    f"{metric['name']} {detail['metrics'][metric['name']]:.6g}"
                    for metric in host_metrics
                )
                print(f"pair {pair:2d} {side:6s} {values}", flush=True)
                if not detail["correct"] or detail["failed"]:
                    problems.append(
                        f"{workload} pair {pair} {side}: correct {detail['correct']}, "
                        f"{detail['failed']} of {detail['attempted']} failed"
                    )
                if detail.get("sim_stats_changed"):
                    problems.append(f"{workload} pair {pair} {side}: sim_stats_changed")

        print(f"\n{workload}  seed {args.seed}  {args.pairs} pairs")
        for metric in host_metrics:
            name = metric["name"]
            table.append((workload, name, *report_metric(
                metric,
                [detail["metrics"][name] for detail in runs["parent"]],
                [detail["metrics"][name] for detail in runs["change"]],
            )))
        digests = {detail["digest"] for side in runs.values() for detail in side}
        if len(digests) > 1:
            problems.append(f"{workload}: simulated statistics differ between "
                            f"runs ({len(digests)} distinct digests)")
        pinned = "sim_stats_changed" in runs["change"][0]
        print("simulated statistics: "
              + ("identical on every run of both sides" if len(digests) == 1 else "DIFFER")
              + ("" if pinned else "  (seed not pinned in bench/expected.json)")
              + "\n", flush=True)

    print(f"seed {args.seed}, {args.pairs} pairs per row, medians; "
          "verdict against each metric's bound in BENCHMARK.json")
    print(f"{'row':26s}{'metric':16s}{'parent':>12s}{'change':>12s}"
          f"{'ratio':>8s}{'won':>7s}  verdict")
    for workload, name, p_mid, c_mid, ratio, won, verdict in table:
        print(f"{workload:26s}{name:16s}{p_mid:12.6g}{c_mid:12.6g}"
              f"{ratio:>8s}{f'{won}/{args.pairs}':>7s}  {verdict}")
    for problem in problems:
        print(f"!! {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
