"""One benchmark for the whole stack — command-line entry point.

Two ways in, one measurement underneath:

``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``
    One workload in this process.  The last line of standard output is
    one JSON object ``{"correct", "attempted", "failed", "metrics"}``
    holding every end-to-end metric (``--trace 0``) or every per-layer
    metric (``--trace 1``) named in ``BENCHMARK.json``.

``PYTHONPATH=src python -m bench.run --seed N --out FILE [--traced] [--only W]``
    Every workload, one child process each (so ``peak_rss_mb`` is per
    workload), printed as a table and written with provenance to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
# The benchmark command names no path outside bench/, so the entry point
# finds the program under test (and its own package) itself.
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
#: Where traced runs leave their Chrome trace files (git-ignored).
OUTPUT_DIR = ROOT / ".bench_out"


def _units(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """Measure one workload in this process; the detail record."""
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.exit(f"cannot import the program under test from {ROOT / 'src'}")
    from bench.layers import measure_layers
    from bench.measure import measure
    from bench.workloads import BY_NAME, make_inputs

    workload = BY_NAME[name]
    inputs = make_inputs(workload, seed)
    if trace:
        trace_path = OUTPUT_DIR / f"trace-{name}-seed{seed}.json"
        detail = measure_layers(workload, inputs, trace_path)
        detail["chrome_trace"] = str(trace_path.relative_to(ROOT))
        return detail
    detail = measure(workload, inputs, seconds)
    expected = json.loads(EXPECTED_PATH.read_text()).get(name, {}).get(str(seed))
    if expected is not None:
        # Not a failure: a later change may alter behaviour on purpose,
        # and the sim_* bounds judge it.  But say so loudly.
        detail["sim_stats_changed"] = expected["digest"] != detail["digest"]
        if detail["sim_stats_changed"]:
            print(
                f"*** {name} seed {seed}: SIMULATED STATISTICS CHANGED "
                f"(digest {detail['digest'][:12]} != expected "
                f"{expected['digest'][:12]}) ***",
                file=sys.stderr,
            )
    return detail


def result_line(detail: dict[str, Any], trace: bool) -> str:
    """The contract's result object for one workload run."""
    units = _units("per_layer" if trace else "end_to_end")
    return json.dumps({
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {
            name: {"value": detail["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    })


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed: int, seconds: float) -> dict[str, Any]:
    from bench.workloads import WORKLOADS

    status = _git("status", "--porcelain")
    return {
        "git_revision": _git("rev-parse", "HEAD"),
        "git_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "seconds": seconds,
        "request_counts": {w.name: w.requests for w in WORKLOADS},
    }


def _child(name: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """Run one workload in a child process; its detail record."""
    with tempfile.TemporaryDirectory(dir=OUTPUT_DIR) as scratch:
        detail_path = Path(scratch) / "detail.json"
        subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace)),
                "--detail", str(detail_path),
            ],
            check=True, stdout=subprocess.DEVNULL,
        )
        return json.loads(detail_path.read_text())


def _print_metrics(title: str, detail: dict[str, Any], units: dict[str, str]) -> None:
    print(f"== {title}" + ("" if detail["correct"] else "  ** INCORRECT **"))
    for name, unit in units.items():
        print(f"  {name:32s} {detail['metrics'][name]:>16.6g} {unit}")
    for problem in detail["problems"]:
        print(f"  !! {problem}")


def run_suite(args: argparse.Namespace) -> int:
    """Every workload, one child each; prints and writes the result file."""
    from bench.workloads import BY_NAME

    names = [args.only] if args.only else list(BY_NAME)
    OUTPUT_DIR.mkdir(exist_ok=True)
    results: dict[str, Any] = {}
    for name in names:
        entry = {"end_to_end": _child(name, args.seed, args.seconds, False)}
        _print_metrics(name, entry["end_to_end"], _units("end_to_end"))
        if args.traced:
            layers = entry["per_layer"] = _child(name, args.seed, args.seconds, True)
            if layers["digest"] != entry["end_to_end"]["digest"]:
                layers["problems"].append(
                    "per-layer pass and end-to-end pass digests differ"
                )
                layers["correct"] = False
            _print_metrics(f"{name} (per layer)", layers, _units("per_layer"))
        results[name] = entry
    document = {
        "schema": 1,
        "provenance": provenance(args.seed, args.seconds),
        "workloads": results,
    }
    Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    if args.update_expected:
        expected = json.loads(EXPECTED_PATH.read_text())
        for name, entry in results.items():
            detail = entry["end_to_end"]
            expected.setdefault(name, {})[str(args.seed)] = {
                "digest": detail["digest"],
                **{k: v for k, v in detail["metrics"].items() if k.startswith("sim_")},
            }
        EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    correct = all(
        part["correct"] for entry in results.values() for part in entry.values()
    )
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    names = [workload["name"] for workload in BENCHMARK["workloads"]]
    parser.add_argument("--workload", choices=names,
                        help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=float(BENCHMARK["run_seconds"]),
        help="seconds of timed region to measure per workload",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", help="also write the detail record here")
    parser.add_argument("--out", help="suite mode: the result file")
    parser.add_argument("--traced", action="store_true",
                        help="suite mode: add the per-layer pass")
    parser.add_argument("--only", choices=names,
                        help="suite mode: just this workload")
    parser.add_argument("--update-expected", action="store_true",
                        help="suite mode: record digests in bench/expected.json")
    args = parser.parse_args(argv)

    if args.workload:
        detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        if args.detail:
            Path(args.detail).write_text(json.dumps(detail))
        for problem in detail["problems"]:
            print(f"!! {problem}", file=sys.stderr)
        print(result_line(detail, bool(args.trace)))
        return 0
    if not args.out:
        parser.error("give --workload (one run) or --out (the whole suite)")
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
