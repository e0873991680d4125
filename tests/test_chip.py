"""Tests for the NAND chip simulator: states, constraints, wear, failure."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.flash.chip import (
    PAGE_FREE,
    PAGE_INVALID,
    PAGE_VALID,
    NandFlash,
)
from repro.flash.errors import AddressError, ProgramError
from repro.flash.geometry import FlashGeometry


class TestPageLifecycle:
    def test_program_then_read(self, chip):
        chip.program(0, 0, lba=42, data=b"hello")
        lba, data = chip.read(0, 0)
        assert lba == 42
        assert data == b"hello"
        assert chip.page_state(0, 0) == PAGE_VALID

    def test_free_page_reads_empty(self, chip):
        lba, data = chip.read(1, 2)
        assert lba == -1
        assert data is None

    def test_overwrite_rejected(self, chip):
        chip.program(0, 0, lba=1)
        with pytest.raises(ProgramError, match="erased before"):
            chip.program(0, 0, lba=2)

    def test_program_invalid_page_rejected(self, chip):
        chip.program(0, 0, lba=1)
        chip.invalidate(0, 0)
        with pytest.raises(ProgramError):
            chip.program(0, 0, lba=2)

    def test_invalidate_requires_valid(self, chip):
        with pytest.raises(ProgramError, match="invalidate"):
            chip.invalidate(0, 0)

    def test_erase_frees_all_pages(self, chip):
        for page in range(chip.geometry.pages_per_block):
            chip.program(2, page, lba=page)
        chip.invalidate(2, 0)
        chip.erase(2)
        assert chip.is_block_free(2)
        assert chip.read(2, 0) == (-1, None)

    def test_data_not_stored_when_disabled(self, tiny_geometry):
        chip = NandFlash(tiny_geometry, store_data=False)
        chip.program(0, 0, lba=9, data=b"payload")
        lba, data = chip.read(0, 0)
        assert lba == 9
        assert data is None


class TestSequentialProgramming:
    def test_out_of_order_allowed_by_default(self, chip):
        chip.program(0, 3, lba=1)  # NFTL writes at home offsets


class TestAddressValidation:
    @pytest.mark.parametrize("address", [(-1, 0), (16, 0), (0, -1), (0, 4)])
    def test_bad_page_addresses(self, chip, address):
        with pytest.raises(AddressError):
            chip.read(*address)

    def test_bad_erase_block(self, chip):
        with pytest.raises(AddressError):
            chip.erase(16)


class TestWear:
    def test_erase_counts_accumulate(self, chip):
        chip.erase(3)
        chip.erase(3)
        chip.erase(5)
        assert chip.erase_counts[3] == 2
        assert chip.erase_counts[5] == 1
        assert chip.total_erases() == 3
        assert chip.max_erase_count() == 2
        assert chip.min_erase_count() == 0

    def test_remaining_life(self, chip):
        chip.erase(0)
        assert chip.remaining_life(0) == chip.geometry.endurance - 1

    def test_first_failure_recorded_not_raised(self, tiny_geometry):
        chip = NandFlash(tiny_geometry)
        for _ in range(tiny_geometry.endurance + 1):
            chip.erase(7)
        assert chip.first_failure is not None
        assert chip.first_failure.block == 7
        assert chip.first_failure.erase_count == tiny_geometry.endurance + 1
        assert 7 in chip.worn_blocks

    def test_first_failure_is_first_only(self, tiny_geometry):
        chip = NandFlash(tiny_geometry)
        for _ in range(tiny_geometry.endurance + 1):
            chip.erase(7)
        for _ in range(tiny_geometry.endurance + 1):
            chip.erase(8)
        assert chip.first_failure.block == 7
        assert chip.worn_blocks == {7, 8}

    def test_operation_counters(self, chip):
        chip.program(0, 0, lba=1)
        chip.read(0, 0)
        chip.erase(0)
        assert (chip.counters.reads, chip.counters.programs, chip.counters.erases) == (
            1,
            1,
            1,
        )


class TestEraseListeners:
    def test_listener_invoked_with_block(self, chip):
        seen = []
        chip.add_erase_listener(seen.append)
        chip.erase(4)
        chip.erase(9)
        assert seen == [4, 9]

    def test_listener_removal(self, chip):
        seen = []
        chip.add_erase_listener(seen.append)
        chip.remove_erase_listener(seen.append)
        chip.erase(0)
        assert seen == []

    def test_listener_runs_after_state_cleared(self, chip):
        chip.program(0, 0, lba=5)

        states = []
        chip.add_erase_listener(lambda block: states.append(chip.page_state(block, 0)))
        chip.erase(0)
        assert states == [PAGE_FREE]


class TestBlockTags:
    def test_set_and_get(self, chip):
        assert chip.block_tag(0) is None
        chip.set_block_tag(0, "P7")
        assert chip.block_tag(0) == "P7"

    def test_erase_clears_tag(self, chip):
        chip.set_block_tag(2, "R3")
        chip.erase(2)
        assert chip.block_tag(2) is None

    def test_bad_block_rejected(self, chip):
        from repro.flash.errors import AddressError

        with pytest.raises(AddressError):
            chip.set_block_tag(99, "x")
        with pytest.raises(AddressError):
            chip.block_tag(99)


class TestBlockQueries:
    def test_count_and_valid_pages(self, chip):
        chip.program(1, 0, lba=10)
        chip.program(1, 1, lba=11)
        chip.invalidate(1, 0)
        assert chip.count_pages(1, PAGE_VALID) == 1
        assert chip.count_pages(1, PAGE_INVALID) == 1
        assert chip.count_pages(1, PAGE_FREE) == 2
        assert chip.valid_pages(1) == [1]

    def test_page_lba(self, chip):
        chip.program(0, 2, lba=77)
        assert chip.page_lba(0, 2) == 77
        assert chip.page_lba(0, 3) == -1


# ----------------------------------------------------------------------
# Property: chip-level invariants under random legal operation sequences
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 10_000)), max_size=300),
       st.integers(0, 2**16))
def test_random_operations_keep_invariants(ops, seed):
    import random

    rng = random.Random(seed)
    geometry = FlashGeometry(4, 4, 512, 1000)
    chip = NandFlash(geometry, store_data=True)
    programmed = {}
    for kind, raw in ops:
        if kind == 0:  # program a random free page
            free = [
                (b, p)
                for b in range(4)
                for p in range(4)
                if chip.page_state(b, p) == PAGE_FREE
            ]
            if not free:
                continue
            block, page = free[raw % len(free)]
            lba = raw % 64
            chip.program(block, page, lba=lba, data=bytes([lba]))
            programmed[(block, page)] = lba
        elif kind == 1:  # invalidate a random valid page
            valid = [addr for addr in programmed]
            if not valid:
                continue
            block, page = valid[raw % len(valid)]
            chip.invalidate(block, page)
            del programmed[(block, page)]
        else:  # erase a random block
            block = raw % 4
            chip.erase(block)
            programmed = {
                addr: lba for addr, lba in programmed.items() if addr[0] != block
            }
        rng.random()
    # Every tracked valid page reads back its tag and payload.
    for (block, page), lba in programmed.items():
        read_lba, data = chip.read(block, page)
        assert read_lba == lba
        assert data == bytes([lba])
    # State counts per block always sum to pages_per_block.
    for block in range(4):
        states = chip.block_page_states(block)
        assert len(states) == 4
        assert set(states) <= {PAGE_FREE, PAGE_VALID, PAGE_INVALID}
