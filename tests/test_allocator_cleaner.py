"""Tests for the free-block allocator and the greedy victim scanner."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.flash.errors import OutOfSpaceError
from repro.ftl.allocator import BlockAllocator
from repro.ftl.cleaner import CyclicScanner, VictimIndex
from repro.obs.bus import EventBus


class TestAllocatorCommon:
    def test_initial_pool(self):
        allocator = BlockAllocator([0] * 4, [0, 1, 2, 3])
        assert allocator.free_count == 4
        assert allocator.contains(2)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown allocation policy"):
            BlockAllocator([0], [0], policy="random")

    def test_allocate_empty_raises(self):
        allocator = BlockAllocator([0], [])
        with pytest.raises(OutOfSpaceError):
            allocator.allocate()

    def test_double_release_rejected(self):
        allocator = BlockAllocator([0, 0], [0])
        with pytest.raises(ValueError, match="already free"):
            allocator.release(0)

    def test_reclaim_specific_block(self):
        allocator = BlockAllocator([0, 0], [0, 1])
        allocator.reclaim(1)
        assert not allocator.contains(1)
        assert allocator.free_count == 1

    def test_reclaim_non_free_rejected(self):
        allocator = BlockAllocator([0], [])
        with pytest.raises(ValueError, match="not free"):
            allocator.reclaim(0)

    def test_promote_non_free_rejected(self):
        allocator = BlockAllocator([0], [])
        with pytest.raises(ValueError, match="not free"):
            allocator.promote(0)

    def test_free_blocks_snapshot(self):
        allocator = BlockAllocator([0] * 3, [0, 2])
        snapshot = allocator.free_blocks()
        snapshot.add(1)  # mutating the snapshot must not affect the pool
        assert allocator.free_blocks() == {0, 2}


class TestLifoPolicy:
    def test_most_recently_released_first(self):
        allocator = BlockAllocator([0] * 4, [0, 1, 2, 3], policy="lifo")
        assert allocator.allocate() == 3  # releases happened 0, 1, 2, 3
        allocator.release(3)
        assert allocator.allocate() == 3  # reused immediately

    def test_virgin_blocks_stay_buried(self):
        # The property behind the paper's pinned-baseline behaviour: a
        # block released once keeps being reused; earlier pool entries
        # never surface.
        allocator = BlockAllocator([0] * 8, list(range(8)), policy="lifo")
        block = allocator.allocate()
        for _ in range(20):
            allocator.release(block)
            assert allocator.allocate() == block
        assert allocator.free_count == 7

    def test_promote_surfaces_buried_block(self):
        allocator = BlockAllocator([0] * 4, [0, 1, 2, 3], policy="lifo")
        allocator.promote(0)  # the SW Leveler pulls block 0 forward
        assert allocator.allocate() == 0

    def test_stale_stack_entries_skipped(self):
        allocator = BlockAllocator([0] * 3, [0, 1, 2], policy="lifo")
        allocator.promote(1)
        allocator.promote(2)
        assert allocator.allocate() == 2
        assert allocator.allocate() == 1
        assert allocator.allocate() == 0
        with pytest.raises(OutOfSpaceError):
            allocator.allocate()  # stale entries must not double-allocate


class TestMinWearPolicy:
    def test_allocate_least_worn(self):
        wear = [5, 0, 3, 9]
        allocator = BlockAllocator(wear, [0, 1, 2, 3], policy="min-wear")
        assert allocator.allocate() == 1  # wear 0
        assert allocator.allocate() == 2  # wear 3
        assert allocator.allocate() == 0
        assert allocator.allocate() == 3

    def test_release_and_reallocate(self):
        wear = [0, 0]
        allocator = BlockAllocator(wear, [0, 1], policy="min-wear")
        block = allocator.allocate()
        wear[block] += 1
        allocator.release(block)
        # The other block is now least-worn.
        assert allocator.allocate() != block

    def test_rekey_when_wear_changed_while_pooled(self):
        # A stale heap entry must not leak an outdated priority.
        wear = [0, 1]
        allocator = BlockAllocator(wear, [0, 1], policy="min-wear")
        wear[0] = 10  # block 0 aged while pooled (e.g., re-released path)
        assert allocator.allocate() == 1

    def test_promote_is_noop(self):
        wear = [7, 0]
        allocator = BlockAllocator(wear, [0, 1], policy="min-wear")
        allocator.promote(0)
        assert allocator.allocate() == 1  # min-wear order unchanged


@given(
    wear=st.lists(st.integers(0, 100), min_size=1, max_size=30),
    takes=st.integers(0, 30),
)
def test_min_wear_always_returns_minimum(wear, takes):
    allocator = BlockAllocator(
        list(wear), list(range(len(wear))), policy="min-wear"
    )
    remaining = dict(enumerate(wear))
    for _ in range(min(takes, len(wear))):
        block = allocator.allocate()
        assert wear[block] == min(remaining.values())
        del remaining[block]


@given(ops=st.lists(st.integers(0, 2), max_size=100), seed=st.integers(0, 100))
def test_lifo_pool_membership_invariant(ops, seed):
    import random

    rng = random.Random(seed)
    allocator = BlockAllocator([0] * 6, list(range(6)), policy="lifo")
    allocated: set[int] = set()
    for op in ops:
        if op == 0 and allocator.free_count:
            block = allocator.allocate()
            assert block not in allocated
            allocated.add(block)
        elif op == 1 and allocated:
            block = rng.choice(sorted(allocated))
            allocated.discard(block)
            allocator.release(block)
        elif op == 2 and allocator.free_count:
            allocator.promote(rng.choice(sorted(allocator.free_blocks())))
    assert allocator.free_count == 6 - len(allocated)


def tallies(size, scores):
    """Flat ``(benefit, cost)`` lists from ``{unit: (benefit, cost)}``."""
    benefit, cost = [0] * size, [0] * size
    for unit, (gain, loss) in scores.items():
        benefit[unit], cost[unit] = gain, loss
    return benefit, cost


def ring(benefit, cost, wear):
    """Every unit as a ``(unit, benefit, cost, wear)`` candidate."""
    return list(zip(range(len(benefit)), benefit, cost, wear))


def reference_gc_scan(
    cursor, benefit, cost, wear, eligible, min_benefit=1, fallback=True
):
    """The callback-era ``find_least_worn`` -> ``find_best_fallback`` pair.

    One object-free transcription of the scans as they were before the
    flat-tally contract, walking the whole ring: returns ``(victim,
    cursor, probes)``.  ``fallback=False`` stops after the least-worn
    scan, as the erase-on-demand pick does.
    """
    size = len(benefit)
    probes = size
    best = None
    for unit in [*range(cursor, size), *range(cursor)]:
        if not eligible(unit) or benefit[unit] <= cost[unit]:
            continue
        if benefit[unit] < min_benefit:
            continue
        if best is None or wear[unit] < wear[best]:
            best = unit
    if best is None and fallback:
        probes += size
        for unit in range(size):
            if not eligible(unit) or benefit[unit] <= 0:
                continue
            if best is None or (
                benefit[unit] - cost[unit] > benefit[best] - cost[best]
            ):
                best = unit
    return best, cursor if best is None else (best + 1) % size, probes


class TestCyclicScanner:
    def test_finds_first_qualifying(self):
        # Equal wear: the first qualifying unit met from the cursor wins,
        # and the next scan continues past it.
        scanner = CyclicScanner(8)
        benefit, cost = tallies(8, {3: (5, 0), 6: (9, 0)})
        wear = [0] * 8
        assert scanner.find_least_worn(ring(benefit, cost, wear)) == 3
        assert scanner.cursor == 4
        assert scanner.find_least_worn(ring(benefit, cost, wear)) == 6

    def test_wraps_around(self):
        scanner = CyclicScanner(8)
        scanner.cursor = 7
        benefit, cost = tallies(8, {2: (4, 1)})
        assert scanner.find_least_worn(ring(benefit, cost, [0] * 8)) == 2

    def test_wraparound_tie_breaks_in_scan_order(self):
        # Units 1 and 6 tie on wear; from cursor 5 the ring meets 6 first.
        scanner = CyclicScanner(8)
        scanner.cursor = 5
        benefit, cost = tallies(8, {1: (4, 1), 6: (4, 1)})
        assert scanner.find_least_worn(ring(benefit, cost, [3] * 8)) == 6
        assert scanner.cursor == 7

    def test_skips_non_qualifying(self):
        # Paper Section 5.1: recycle when the weighted sum is "above
        # zero" — benefit equal to cost does not qualify.
        scanner = CyclicScanner(4)
        benefit, cost = tallies(4, {0: (1, 5), 1: (2, 2), 2: (6, 1)})
        assert scanner.find_least_worn(ring(benefit, cost, [0] * 4)) == 2

    def test_none_when_no_candidates(self):
        # An all-free pool tallies 0/0 everywhere: nothing qualifies, the
        # cursor stays, and the revolution is still accounted — whether
        # the driver hands in the whole ring or nothing at all.
        scanner = CyclicScanner(4)
        scanner.cursor = 2
        assert scanner.find_least_worn(ring([0] * 4, [0] * 4, [0] * 4)) is None
        assert scanner.find_best_fallback(ring([0] * 4, [0] * 4, [0] * 4)) is None
        assert (scanner.cursor, scanner.probes) == (2, 8)
        assert scanner.find_least_worn(()) is None
        assert scanner.find_best_fallback(()) is None
        assert (scanner.cursor, scanner.probes) == (2, 16)

    def test_ineligible_unit_never_wins(self):
        # Unit 1 has the best score and the least wear but is vetoed (a
        # frontier or retired block); the veto is asked only about units
        # the tallies admit.
        scanner = CyclicScanner(4)
        benefit, cost = tallies(4, {1: (9, 0), 3: (2, 1)})
        candidates = ring(benefit, cost, [0, 0, 0, 7])
        asked = []

        def eligible(unit):
            asked.append(unit)
            return unit != 1

        assert scanner.find_least_worn(candidates, eligible) == 3
        assert set(asked) <= {1, 3}
        assert scanner.find_best_fallback(candidates, eligible) == 3

    def test_min_benefit_skips_the_revolution(self):
        # Dead-block recycle: no unit is fully invalid, so nothing is
        # walked — but probes and the GcScan payload say one revolution.
        scanner = CyclicScanner(4)
        bus = EventBus()
        events = []
        bus.subscribe(events.append)
        scanner.attach_bus(bus)
        benefit, cost = tallies(4, {0: (3, 0), 2: (2, 1)})
        walked = []
        assert scanner.find_least_worn(
            ring(benefit, cost, [0] * 4), walked.append, min_benefit=4
        ) is None
        assert not walked and scanner.probes == 4 and scanner.cursor == 0
        benefit[2], cost[2] = 4, 0
        assert scanner.find_least_worn(
            ring(benefit, cost, [0] * 4), min_benefit=4
        ) == 2
        bus.flush()
        scans = [record.event for record in events]
        assert [(e.mode, e.probes, e.victim) for e in scans] == [
            ("least-worn", 4, -1), ("least-worn", 4, 2),
        ]

    def test_fallback_picks_best(self):
        scanner = CyclicScanner(4)
        # Unit 3 has nothing reclaimable.
        benefit, cost = tallies(4, {0: (2, 10), 1: (3, 5), 3: (0, 0)})
        assert scanner.find_best_fallback(ring(benefit, cost, [0] * 4)) == 1

    def test_fallback_requires_positive_benefit(self):
        scanner = CyclicScanner(2)
        assert scanner.find_best_fallback(ring([0, 0], [0, 0], [0, 0])) is None

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            CyclicScanner(0)

    def test_probe_accounting(self):
        scanner = CyclicScanner(4)
        scanner.find_least_worn(ring([0] * 4, [0] * 4, [0] * 4))
        assert scanner.probes == 4

    @pytest.mark.parametrize("field, value, message", [
        ("size", 5, "covers 5 units"),
        ("cursor", 4, "cursor 4 outside"),
        ("cursor", -1, "cursor -1 outside"),
        ("probes", -8, "probes -8 is negative"),
    ])
    def test_restore_rejects_a_corrupt_snapshot(self, field, value, message):
        # Checkpoint images are outside input: a wrong size, a cursor off
        # the ring or a negative probe count must not be adopted.
        scanner = CyclicScanner(4)
        scanner.find_least_worn(ring([0, 3, 0, 0], [0] * 4, [0] * 4))
        good = scanner.snapshot_state()
        with pytest.raises(ValueError, match=message):
            scanner.restore_state({**good, field: value})
        assert scanner.snapshot_state() == good
        scanner.restore_state(good)
        assert (scanner.cursor, scanner.probes) == (2, 4)

    @given(
        units=st.lists(
            st.tuples(
                st.sampled_from((0, 0, 1, 2, 3, 4)),  # benefit; 0 = free or clean
                st.integers(0, 4),                    # cost
                st.integers(0, 2),                    # wear, narrow to force ties
                st.booleans(),                        # handed in even without benefit
            ),
            min_size=1, max_size=12,
        ),
        vetoed=st.sets(st.integers(0, 11)),
        cursor=st.integers(0, 11),
        min_benefit=st.integers(1, 4),
        rng=st.randoms(use_true_random=False),
    )
    def test_matches_the_callback_era_scans(
        self, units, vetoed, cursor, min_benefit, rng
    ):
        """Victim, cursor, probes and the ``GcScan`` stream of least-worn ->
        fallback equal the whole-ring scans of the callback era, whatever
        shuffled superset of the units that tally a benefit is handed in."""
        size = len(units)
        benefit, cost, wear, extra = map(list, zip(*units))
        candidates = [
            candidate for candidate in ring(benefit, cost, wear)
            if candidate[1] or extra[candidate[0]]
        ]
        rng.shuffle(candidates)
        scanner = CyclicScanner(size)
        scanner.cursor = cursor % size
        bus = EventBus()
        records = []
        bus.subscribe(records.append)
        scanner.attach_bus(bus)

        def eligible(unit):
            return unit not in vetoed

        expected = reference_gc_scan(
            scanner.cursor, benefit, cost, wear, eligible, min_benefit
        )
        # A set is the shape NFTL hands over: no order to lean on at all.
        victim = scanner.find_least_worn(
            set(candidates), eligible, min_benefit=min_benefit
        )
        scans = [("least-worn", size, -1 if victim is None else victim)]
        if victim is None:
            victim = scanner.find_best_fallback(candidates, eligible)
            scans.append(("fallback", size, -1 if victim is None else victim))
        assert (victim, scanner.cursor, scanner.probes) == expected
        bus.flush()
        assert [
            (r.event.mode, r.event.probes, r.event.victim) for r in records
        ] == scans


#: The index's ``dead_at`` in the property below: a unit's page count.
PAGES = 4


@given(
    size=st.integers(1, 10),
    ops=st.lists(
        st.one_of(
            st.tuples(
                st.just("stale"),         # pages leave valid for invalid
                st.integers(0, 9),        # unit
                st.integers(0, PAGES),    # valid pages that go stale
                st.integers(0, 1),        # invalid pages added outright
                st.booleans(),            # mark even a settled unit
            ),
            st.tuples(
                st.just("tally"),         # anything else: refiled at once
                st.integers(0, 9),        # unit
                st.integers(0, PAGES),    # benefit (invalid pages)
                st.integers(0, PAGES),    # cost (valid pages)
                st.booleans(),            # erased: wear rises
            ),
            st.tuples(
                st.just("pick"),
                st.sampled_from(("gc", "dead")),
                st.integers(0, 9),        # cursor, moved from outside
                st.sets(st.integers(0, 9), max_size=4),  # vetoed units
            ),
            st.tuples(st.just("rebuild")),
        ),
        max_size=40,
    ),
)
def test_victim_index_picks_what_the_ring_walk_picks(size, ops):
    """After any sequence of marked stale pages, refiled tally changes,
    cursor moves, vetoes and rebuilds, each index pick -- least-worn then
    fallback as a Cleaner pass makes them, and the erase-on-demand pick --
    equals the whole-ring walk: victim, cursor, ``probes`` and the
    ``GcScan`` stream, and ``eligible`` is asked only about units the
    tallies admit."""
    invalid, valid, wear = [0] * size, [0] * size, [0] * size
    scanner = CyclicScanner(size)
    bus = EventBus()
    records = []
    bus.subscribe(records.append)
    scanner.attach_bus(bus)
    index = VictimIndex(scanner, PAGES, invalid, valid, wear)
    scans = []
    for op in ops:
        if op[0] == "stale":
            _, unit, moved, added, always = op
            unit %= size
            moved = min(moved, valid[unit])
            valid[unit] -= moved
            # A unit never holds more than PAGES pages.
            invalid[unit] = min(PAGES - valid[unit], invalid[unit] + moved + added)
            if not valid[unit]:  # the last valid page went: maybe dead
                index.refile(unit)
            elif always or not index.settled[unit]:
                index.marked.append(unit)
            continue
        if op[0] == "tally":
            _, unit, benefit, cost, erased = op
            unit %= size
            wear[unit] += erased
            invalid[unit], valid[unit] = benefit, min(cost, PAGES - benefit)
            index.refile(unit)
            continue
        if op[0] == "rebuild":  # a restore hands over fresh lists
            invalid, valid = list(invalid), list(valid)
            index.rebuild(invalid, valid, wear)
            continue
        _, kind, cursor, vetoed = op
        scanner.cursor = cursor % size
        min_benefit = PAGES if kind == "dead" else 1

        def allowed(unit):
            return unit not in vetoed

        first = reference_gc_scan(
            scanner.cursor, invalid, valid, wear, allowed, min_benefit,
            fallback=False,
        )
        expected = reference_gc_scan(
            scanner.cursor, invalid, valid, wear, allowed, min_benefit,
            fallback=kind == "gc",
        )
        asked = []

        def eligible(unit):
            asked.append(unit)
            return allowed(unit)

        probes = scanner.probes
        victim = (index.dead if kind == "dead" else index.least_worn)(eligible)
        assert all(
            invalid[unit] > valid[unit] and invalid[unit] >= min_benefit
            for unit in asked
        )
        scans.append(("least-worn", -1 if first[0] is None else first[0]))
        if victim is None and kind == "gc":
            asked.clear()
            victim = index.fallback(eligible)
            assert all(invalid[unit] > 0 for unit in asked)
            scans.append(("fallback", -1 if expected[0] is None else expected[0]))
        assert (victim, scanner.cursor, scanner.probes - probes) == expected
    bus.flush()
    assert [
        (r.event.mode, r.event.probes, r.event.victim) for r in records
    ] == [(mode, size, victim) for mode, victim in scans]
