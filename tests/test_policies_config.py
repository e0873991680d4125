"""Tests for selection/trigger policies and the paper's SWLConfig sweep."""

from __future__ import annotations

import random

import pytest

from repro.core.bet import BlockErasingTable
from repro.core.config import (
    DISABLED,
    PAPER_K_VALUES,
    PAPER_THRESHOLDS,
    SWLConfig,
)
from repro.core.alternatives import (
    CacheAvoidLeveler,
    DualPoolLeveler,
    SoftWearLeveler,
)
from repro.core.leveler import SWLeveler
from repro.core.policies import (
    EveryNRequestsTrigger,
    LevelerSpec,
    OnEraseTrigger,
    PeriodicTrigger,
    RandomSelection,
    SequentialSelection,
    leveler_kinds,
    make_selection_policy,
    make_trigger_policy,
)


class TestSequentialSelection:
    def test_picks_next_zero(self):
        bet = BlockErasingTable(8)
        bet.record_erase(0)
        bet.record_erase(1)
        policy = SequentialSelection()
        assert policy.select(bet, 0, random.Random(1)) == 2

    def test_returns_none_when_full(self):
        bet = BlockErasingTable(4)
        for block in range(4):
            bet.record_erase(block)
        assert SequentialSelection().select(bet, 0, random.Random(1)) is None


class TestRandomSelection:
    def test_only_zero_flags_chosen(self):
        bet = BlockErasingTable(16)
        for block in range(12):
            bet.record_erase(block)
        policy = RandomSelection()
        rng = random.Random(3)
        for _ in range(20):
            choice = policy.select(bet, 0, rng)
            assert choice in {12, 13, 14, 15}

    def test_returns_none_when_full(self):
        bet = BlockErasingTable(4)
        for block in range(4):
            bet.record_erase(block)
        assert RandomSelection().select(bet, 0, random.Random(1)) is None

    def test_uniformish_coverage(self):
        bet = BlockErasingTable(8)
        policy = RandomSelection()
        rng = random.Random(5)
        seen = {policy.select(bet, 0, rng) for _ in range(200)}
        assert seen == set(range(8))

    def test_seeded_determinism(self):
        """Same seed, same BET: the pick sequence replays exactly."""
        def picks():
            bet = BlockErasingTable(32)
            for block in range(10):
                bet.record_erase(block)
            policy = RandomSelection()
            rng = random.Random(7)
            return [policy.select(bet, 0, rng) for _ in range(50)]

        assert picks() == picks()


class TestSelectionFactory:
    def test_known_names(self):
        assert isinstance(make_selection_policy("sequential"), SequentialSelection)
        assert isinstance(make_selection_policy("random"), RandomSelection)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown selection"):
            make_selection_policy("zigzag")


class TestTriggers:
    def test_on_erase_always_checks(self):
        trigger = OnEraseTrigger()
        assert trigger.should_check(erases=0, requests=0, now=0.0)
        assert trigger.should_check(erases=5, requests=9, now=1.0)

    def test_every_n_requests(self):
        trigger = EveryNRequestsTrigger(10)
        fires = [
            trigger.should_check(erases=0, requests=r, now=0.0) for r in range(25)
        ]
        assert fires.count(True) == 3  # buckets 0, 1, 2

    def test_every_n_requires_positive(self):
        with pytest.raises(ValueError):
            EveryNRequestsTrigger(0)

    def test_periodic(self):
        trigger = PeriodicTrigger(10.0)
        assert trigger.should_check(erases=0, requests=0, now=0.0)
        assert not trigger.should_check(erases=0, requests=0, now=5.0)
        assert trigger.should_check(erases=0, requests=0, now=10.0)
        assert not trigger.should_check(erases=0, requests=0, now=19.0)

    def test_periodic_requires_positive(self):
        with pytest.raises(ValueError):
            PeriodicTrigger(0.0)

    def test_every_n_first_request_is_bucket_zero(self):
        """Bucket 0 fires on the very first request, not after ``n``.

        The cursor starts at -1, so the first evaluation (requests=0,
        bucket 0) counts as a fresh bucket — the leveler gets one check
        at startup and then exactly one per ``n`` requests.
        """
        trigger = EveryNRequestsTrigger(100)
        assert trigger.should_check(erases=0, requests=0, now=0.0)
        assert not trigger.should_check(erases=0, requests=50, now=0.0)
        assert not trigger.should_check(erases=0, requests=99, now=0.0)
        assert trigger.should_check(erases=0, requests=100, now=0.0)

    def test_periodic_fires_once_per_period_under_jitter(self):
        """N periods with jittered arrivals -> exactly N checks.

        The fixed grid is the point of the bugfix: a late check must not
        push the next one to ``now + period`` (which would drift the
        rate below ``1/period`` forever), and multiple arrivals inside
        one period must still yield one check.
        """
        rng = random.Random(2)
        trigger = PeriodicTrigger(10.0)
        fires = 0
        periods = 50
        for index in range(periods):
            arrivals = sorted(
                index * 10.0 + rng.uniform(0.0, 10.0) for _ in range(3)
            )
            for now in arrivals:
                fires += trigger.should_check(erases=0, requests=0, now=now)
        assert fires == periods

    def test_periodic_skips_missed_grid_points_without_burst(self):
        """A long gap yields one late check, not a catch-up burst."""
        trigger = PeriodicTrigger(10.0)
        assert trigger.should_check(erases=0, requests=0, now=0.0)
        # Five grid points pass silently; the next arrival checks once...
        assert trigger.should_check(erases=0, requests=0, now=57.0)
        assert not trigger.should_check(erases=0, requests=0, now=58.0)
        # ...and the grid stays anchored at multiples of the period.
        assert trigger.should_check(erases=0, requests=0, now=60.0)

    def test_trigger_factory_unknown_name(self):
        with pytest.raises(ValueError, match="unknown trigger"):
            make_trigger_policy("lunar", 1.0)


class TestSWLConfig:
    def test_is_levelerspec(self):
        # One leveler config class; the paper-protocol name is an alias.
        assert SWLConfig is LevelerSpec
        assert SWLConfig(threshold=5, k=0) == LevelerSpec(
            kind="swl", threshold=5, k=0
        )

    def test_label(self):
        assert SWLConfig(threshold=100, k=2).label() == "SWL+k=2+T=100"
        assert DISABLED.label() == "baseline"

    def test_disabled_builds_none(self):
        assert DISABLED.build(8, host=None) is None

    def test_build_wires_parameters(self):
        class Host:
            def recycle_block_range(self, blocks):
                return 0

            def swl_cost_probe(self):
                return (0, 0)

        leveler = SWLConfig(threshold=50, k=1, selection="random").build(16, Host())
        assert leveler is not None
        assert leveler.threshold == 50
        assert leveler.bet.k == 1
        assert isinstance(leveler.selection, RandomSelection)

    def test_trigger_variants(self):
        class Host:
            def recycle_block_range(self, blocks):
                return 0

            def swl_cost_probe(self):
                return (0, 0)

        request_cfg = SWLConfig(trigger="every-n-requests", trigger_param=100)
        periodic_cfg = SWLConfig(trigger="periodic", trigger_param=60.0)
        assert isinstance(request_cfg.build(8, Host()).trigger, EveryNRequestsTrigger)
        assert isinstance(periodic_cfg.build(8, Host()).trigger, PeriodicTrigger)

    def test_unknown_trigger(self):
        # The name reaches make_trigger_policy when the leveler is built.
        with pytest.raises(ValueError, match="unknown trigger"):
            SWLConfig(trigger="sometimes").build(8, host=None)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            SWLConfig(threshold=0)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            SWLConfig(k=-1)

    def test_disabled_skips_threshold_check(self):
        # The baseline label carries no SWL parameters to validate.
        assert SWLConfig(enabled=False, threshold=-5).label() == "baseline"


class TestPaperSweep:
    def test_paper_constants(self):
        assert PAPER_THRESHOLDS == (100, 400, 700, 1000)
        assert PAPER_K_VALUES == (0, 1, 2, 3)


# ----------------------------------------------------------------------
# The leveler registry (LevelerSpec)
# ----------------------------------------------------------------------
class _RegistryHost:
    """Minimal WearLevelingHost with the mtd the dual-pool kind needs."""

    class _Mtd:
        def __init__(self, num_blocks):
            self.erase_counts = [0] * num_blocks

    class _Geometry:
        page_size = 4096

    def __init__(self, num_blocks=16):
        self.mtd = self._Mtd(num_blocks)
        self.geometry = self._Geometry()

    def recycle_block_range(self, blocks):
        return 0

    def swl_cost_probe(self):
        return (0, 0)


class TestLevelerSpec:
    def test_registered_kinds(self):
        assert leveler_kinds() == [
            "cache-avoid", "dual-pool", "softwear", "swl"
        ]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown leveler kind"):
            LevelerSpec(kind="quantum")

    def test_builds_each_mechanism(self):
        host = _RegistryHost()
        built = {
            kind: LevelerSpec(kind=kind).build(16, host)
            for kind in leveler_kinds()
        }
        assert isinstance(built["swl"], SWLeveler)
        assert isinstance(built["dual-pool"], DualPoolLeveler)
        assert isinstance(built["cache-avoid"], CacheAvoidLeveler)
        assert isinstance(built["softwear"], SoftWearLeveler)

    def test_disabled_builds_none(self):
        assert LevelerSpec(enabled=False).build(16, _RegistryHost()) is None

    def test_labels(self):
        assert LevelerSpec(kind="swl", threshold=400, k=2).label() == (
            "SWL+k=2+T=400"
        )
        assert LevelerSpec(kind="dual-pool", delta=8).label() == "DP+d=8+p=64"
        assert LevelerSpec(kind="cache-avoid").label() == "CACHE+64p"
        assert LevelerSpec(kind="softwear").label() == "SOFTWEAR+n=256+s=1"
        assert LevelerSpec(enabled=False).label() == "baseline"

    def test_swl_label_matches_swlconfig(self):
        spec = LevelerSpec(kind="swl", threshold=100, k=2)
        assert spec.label() == SWLConfig(threshold=100, k=2).label()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "swl", "threshold": 0},
            {"kind": "swl", "k": -1},
            {"kind": "dual-pool", "delta": 0},
            {"kind": "dual-pool", "check_period": 0},
            {"kind": "dual-pool", "batch": 0},
            {"kind": "cache-avoid", "cache_pages": 0},
            {"kind": "softwear", "period_requests": 0},
            {"kind": "softwear", "span_blocks": 0},
        ],
    )
    def test_knob_validation(self, kwargs):
        with pytest.raises(ValueError):
            LevelerSpec(**kwargs)

    def test_disabled_skips_knob_validation(self):
        assert LevelerSpec(enabled=False, threshold=-1).label() == "baseline"

    def test_swl_kind_wires_policies_through(self):
        host = _RegistryHost()
        leveler = LevelerSpec(
            kind="swl",
            threshold=50,
            k=1,
            selection="random",
            trigger="every-n-requests",
            trigger_param=32,
        ).build(16, host)
        assert leveler.threshold == 50
        assert leveler.bet.k == 1
        assert isinstance(leveler.selection, RandomSelection)
        assert isinstance(leveler._trigger, EveryNRequestsTrigger)
        assert leveler._trigger.n == 32

    def test_cache_avoid_reads_page_size_from_host(self):
        leveler = LevelerSpec(kind="cache-avoid", cache_pages=8).build(
            16, _RegistryHost()
        )
        assert leveler.page_size == 4096
        assert leveler.ram_bytes == 8 * (4096 + 4)

    def test_dual_pool_shares_the_host_counters(self):
        host = _RegistryHost(num_blocks=12)
        leveler = LevelerSpec(kind="dual-pool").build(12, host)
        assert leveler.erase_counts is host.mtd.erase_counts

    def test_spec_is_hashable_and_picklable(self):
        import pickle

        spec = LevelerSpec(kind="softwear", period_requests=64)
        assert hash(spec) == hash(LevelerSpec(kind="softwear", period_requests=64))
        assert pickle.loads(pickle.dumps(spec)) == spec
