"""Tests for the analytic models of paper Section 4 (Tables 1-3)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.analysis.memory import (
    bet_size_bytes,
    bet_size_for,
    mlc2_reduction,
    table1,
    table1_headers,
)
from repro.analysis.overhead import (
    TABLE2_CONFIGS,
    TABLE3_CONFIGS,
    WorstCaseConfig,
    table2,
    table3,
)
from repro.flash.geometry import GIB, MIB, slc_large_block


class TestTable1:
    """Paper Table 1: BET size for SLC flash memory."""

    # The exact cells of the paper's table: capacity (MB) -> k -> bytes.
    PAPER_CELLS = {
        128: {0: 128, 1: 64, 2: 32, 3: 16},
        256: {0: 256, 1: 128, 2: 64, 3: 32},
        512: {0: 512, 1: 256, 2: 128, 3: 64},
        1024: {0: 1024, 1: 512, 2: 256, 3: 128},
        2048: {0: 2048, 1: 1024, 2: 512, 3: 256},
        4096: {0: 4096, 1: 2048, 2: 1024, 3: 512},
    }

    @pytest.mark.parametrize("mib,by_k", sorted(PAPER_CELLS.items()))
    def test_matches_paper_cells(self, mib, by_k):
        geometry = slc_large_block(mib * MIB)
        for k, expected in by_k.items():
            assert bet_size_for(geometry, k) == expected

    def test_table1_layout(self):
        rows = table1()
        headers = table1_headers()
        assert headers == ["", "128MB", "256MB", "512MB", "1GB", "2GB", "4GB"]
        assert rows[0][0] == "k = 0"
        assert rows[0][1] == "128B"
        assert rows[3][-1] == "512B"

    def test_mlc_halves_the_table(self):
        # Section 4.1: MLC blocks are twice as large, so the BET shrinks.
        assert mlc2_reduction(1 * GIB, 0) == pytest.approx(0.5)

    def test_bet_size_bytes_validation(self):
        with pytest.raises(ValueError):
            bet_size_bytes(0, 0)
        with pytest.raises(ValueError):
            bet_size_bytes(8, -1)

    @given(num_blocks=st.integers(1, 10**6), k=st.integers(0, 8))
    def test_size_monotone_in_k(self, num_blocks, k):
        assert bet_size_bytes(num_blocks, k + 1) <= bet_size_bytes(num_blocks, k)


class TestTable2:
    """Paper Table 2: worst-case increased ratio of block erases."""

    # (H, C, T) -> paper-reported percentage.
    PAPER_ROWS = [
        (256, 3840, 100, 0.946),
        (2048, 2048, 100, 0.503),
        (256, 3840, 1000, 0.094),
        (2048, 2048, 1000, 0.050),
    ]

    @pytest.mark.parametrize("h,c,t,expected", PAPER_ROWS)
    def test_matches_paper(self, h, c, t, expected):
        config = WorstCaseConfig(h, c, t)
        assert 100 * config.extra_erase_ratio() == pytest.approx(expected, abs=0.001)

    def test_approximation_close_when_t_large(self):
        config = WorstCaseConfig(256, 3840, 1000)
        assert config.extra_erase_ratio() == pytest.approx(
            config.extra_erase_ratio_approx(), rel=0.01
        )

    def test_table2_rows_shape(self):
        rows = table2()
        assert len(rows) == len(TABLE2_CONFIGS)
        assert rows[0][:4] == [256, 3840, "1:15", 100]
        assert rows[0][4] == "0.946%"

    def test_validation(self):
        with pytest.raises(ValueError):
            WorstCaseConfig(0, 1, 1)
        with pytest.raises(ValueError):
            WorstCaseConfig(1, 0, 1)
        with pytest.raises(ValueError):
            WorstCaseConfig(1, 1, 0)


class TestTable3:
    """Paper Table 3: worst-case increased ratio of live-page copyings."""

    # (H, C, T, L) -> paper-reported percentage, N = 128.  The paper's own
    # printed cells wobble in the last digit relative to its formula
    # C*N / ((T*(H+C) - C) * L) (e.g. it prints 4.002 where the formula
    # gives 4.020); we reproduce the formula and allow that wobble.
    PAPER_ROWS = [
        (256, 3840, 100, 16, 7.572),
        (2048, 2048, 100, 16, 4.002),
        (256, 3840, 100, 32, 3.786),
        (2048, 2048, 100, 32, 2.001),
        (256, 3840, 1000, 16, 0.757),
        (2048, 2048, 1000, 16, 0.400),
        (256, 3840, 1000, 32, 0.379),
        (2048, 2048, 1000, 32, 0.200),
    ]

    @pytest.mark.parametrize("h,c,t,live,expected", PAPER_ROWS)
    def test_matches_paper(self, h, c, t, live, expected):
        config = WorstCaseConfig(h, c, t)
        measured = 100 * config.extra_copy_ratio(128, live)
        assert measured == pytest.approx(expected, abs=0.02)

    def test_table3_rows_shape(self):
        rows = table3()
        assert len(rows) == len(TABLE3_CONFIGS)
        assert rows[0][-1] == "7.571%"  # formula value; paper prints 7.572%
        assert rows[0][5] == pytest.approx(0.08)  # N/(T*L) column

    def test_copy_ratio_validation(self):
        config = WorstCaseConfig(1, 1, 1)
        with pytest.raises(ValueError):
            config.extra_copy_ratio(0, 1)
        with pytest.raises(ValueError):
            config.extra_copy_ratio(1, 0)

    @given(
        h=st.integers(1, 4000),
        c=st.integers(1, 4000),
        t=st.floats(1, 10_000),
    )
    def test_ratio_decreasing_in_t(self, h, c, t):
        smaller_t = WorstCaseConfig(h, c, t)
        larger_t = WorstCaseConfig(h, c, t * 2)
        assert larger_t.extra_erase_ratio() < smaller_t.extra_erase_ratio()
