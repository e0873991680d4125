"""Tests for selection policies and the paper's SWLConfig sweep."""

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
    LevelerSpec,
    RandomSelection,
    SequentialSelection,
    leveler_kinds,
    make_selection_policy,
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
        ).build(16, host)
        assert leveler.threshold == 50
        assert leveler.bet.k == 1
        assert isinstance(leveler.selection, RandomSelection)

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
