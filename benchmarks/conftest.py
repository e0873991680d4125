"""Shared setup for the benchmark harness.

Every trace-driven bench replays the same synthetic mobile-PC base trace
(Section 5.1 protocol) against storage stacks that differ only in driver
and SW Leveler configuration, exactly like the paper's sweeps.  Results
are cached per (protocol, driver, k, T) for the whole pytest session so
that Table 4 and Figures 6-7 — which the paper derives from the same
fixed-horizon runs — share one matrix instead of recomputing it.

Environment knobs
-----------------
``REPRO_BENCH_QUICK=1``
    Shrink the sweep to k in {0, 3} and T in {100, 1000} for fast
    iteration.  The full paper sweep (k in 0..3, T in {100, 400, 700,
    1000}) is the default and takes ~20-30 minutes.
``REPRO_BENCH_BLOCKS`` / ``REPRO_BENCH_SCALE``
    Override the scaled chip size (default 64 blocks) and the endurance
    scale factor (default 5: endurance 2,000).  Thresholds stay at the
    paper's values — scaling T would distort the race between natural
    flag setting and forced recycles that governs the k > 0 modes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.core.config import PAPER_K_VALUES, PAPER_THRESHOLDS, SWLConfig
from repro.sim.engine import SimResult
from repro.sim.experiment import (
    ExperimentSpec,
    run_fixed_horizon,
    run_until_first_failure,
    scaled_mlc2_geometry,
    workload_params_for,
)
from repro.traces.generator import DAY, MobilePCWorkload
from repro.traces.model import Request

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
BLOCKS = int(os.environ.get("REPRO_BENCH_BLOCKS", "64"))
SCALE = int(os.environ.get("REPRO_BENCH_SCALE", "5"))

#: Paper sweep (Figures 5-7): k values and unevenness thresholds.
K_VALUES = (0, 3) if QUICK else PAPER_K_VALUES
THRESHOLDS = (100, 1000) if QUICK else PAPER_THRESHOLDS

#: Fixed horizon of the Table 4 / Figures 6-7 runs, in simulated seconds.
#: The paper runs 10 simulated years on a 10,000-cycle chip; with the
#: endurance scaled by SCALE the equivalent horizon shrinks likewise
#: (some blocks wear out within it, exactly as in the paper's runs).
HORIZON = 4 * DAY

SEED = 1
BASE_TRACE_DAYS = 2.0
WORKLOAD_SEED = 42

#: Where regenerated tables/figures are persisted (pytest captures stdout,
#: so each bench also writes its exhibit here).
RESULTS_DIR = Path(__file__).parent / "results"


def report(name: str, text: str) -> None:
    """Print an exhibit and persist it to ``benchmarks/results/<name>.txt``."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def pytest_sessionfinish(session, exitstatus):
    """Write an index of every regenerated exhibit after a bench run."""
    if not RESULTS_DIR.is_dir():
        return
    exhibits = sorted(p for p in RESULTS_DIR.glob("*.txt"))
    if not exhibits:
        return
    lines = [
        "# Regenerated exhibits",
        "",
        f"Configuration: {BLOCKS} blocks, endurance {10_000 // SCALE}, "
        f"{'quick' if QUICK else 'full'} sweep "
        f"(k in {list(K_VALUES)}, T in {list(THRESHOLDS)}).",
        "",
    ]
    for path in exhibits:
        title = path.read_text().splitlines()[0]
        lines.append(f"- `{path.name}` — {title}")
    lines.append("")
    (RESULTS_DIR / "INDEX.md").write_text("\n".join(lines))


@dataclass
class BenchSetup:
    """Everything a trace-driven bench needs, built once per session."""

    geometry: object
    base_trace: list[Request]
    warmup: list[Request]

    def spec(self, driver: str, combo: tuple[int, int] | None) -> ExperimentSpec:
        """Spec for a (driver, (k, T)) point; ``None`` = baseline."""
        swl = None
        if combo is not None:
            k, paper_t = combo
            swl = SWLConfig(threshold=paper_t, k=k)
        return ExperimentSpec(driver, self.geometry, swl, seed=SEED)

    @staticmethod
    def swl_label(combo: tuple[int, int]) -> str:
        """Paper-style label, e.g. ``k=0,T=100``."""
        k, paper_t = combo
        return f"k={k},T={paper_t}"


class ResultMatrix:
    """Session-wide memo of simulation results.

    Keys are ``(protocol, driver, combo)`` where protocol is
    ``"first-failure"`` or ``"horizon"`` and combo is ``None`` (baseline)
    or ``(k, paper_T)``.
    """

    def __init__(self, setup: BenchSetup) -> None:
        self.setup = setup
        self._cache: dict[tuple, SimResult] = {}

    def first_failure(self, driver: str, combo: tuple[int, int] | None) -> SimResult:
        return self._get("first-failure", driver, combo)

    def horizon(self, driver: str, combo: tuple[int, int] | None) -> SimResult:
        return self._get("horizon", driver, combo)

    def _get(self, protocol: str, driver: str, combo) -> SimResult:
        key = (protocol, driver, combo)
        if key not in self._cache:
            spec = self.setup.spec(driver, combo)
            if protocol == "first-failure":
                result = run_until_first_failure(
                    spec, self.setup.base_trace, warmup=self.setup.warmup
                )
            else:
                result = run_fixed_horizon(
                    spec, self.setup.base_trace, HORIZON, warmup=self.setup.warmup
                )
            self._cache[key] = result
        return self._cache[key]


@pytest.fixture(scope="session")
def bench_setup() -> BenchSetup:
    geometry = scaled_mlc2_geometry(BLOCKS, scale=SCALE)
    probe = ExperimentSpec("ftl", geometry, seed=SEED)
    params = workload_params_for(
        probe, duration=BASE_TRACE_DAYS * DAY, seed=WORKLOAD_SEED
    )
    workload = MobilePCWorkload(params)
    return BenchSetup(
        geometry=geometry,
        base_trace=workload.requests(),
        warmup=workload.prefill_requests(),
    )


@pytest.fixture(scope="session")
def matrix(bench_setup: BenchSetup) -> ResultMatrix:
    return ResultMatrix(bench_setup)
