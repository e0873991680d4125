"""Tests for the multi-channel device array: striping, dispatcher,
wear coordination, and the 1-channel bit-for-bit equivalence guarantee."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.array import (
    SCOPES,
    ContiguousRange,
    DeviceArray,
    PageInterleaved,
    WearCoordinator,
    build_array,
    make_striping,
    striping_names,
)
from repro.core.config import SWLConfig
from repro.fault.plan import FaultPlan
from repro.flash.errors import FlashError, PowerLossError, TranslationError
from repro.ftl.factory import StorageBackend, StorageStack, build_stack
from repro.sim.engine import Simulator, StopCondition
from repro.sim.experiment import (
    ExperimentSpec,
    run_matrix,
    scaled_mlc2_geometry,
    workload_params_for,
)
from repro.sim.metrics import EraseDistribution
from repro.traces.generator import MobilePCWorkload
from repro.traces.model import Op, Request
from repro.util.rng import make_rng, spawn_rng


def write(time, lba, sectors=1):
    return Request(time, Op.WRITE, lba, sectors)


def skewed_page_stream(num_pages, seed, *, hot_fraction=0.25, hot_prob=0.7):
    """Endless write stream with a hot region — drives wear-out quickly."""
    rng = random.Random(seed)
    hot = max(1, int(num_pages * hot_fraction))
    step = 0
    while True:
        lpn = rng.randrange(hot) if rng.random() < hot_prob else rng.randrange(num_pages)
        yield step, lpn
        step += 1


# ----------------------------------------------------------------------
# Striping policies
# ----------------------------------------------------------------------
class TestStriping:
    @pytest.mark.parametrize("cls", [PageInterleaved, ContiguousRange])
    def test_bijection(self, cls):
        policy = cls(num_shards=3, pages_per_shard=8)
        seen = set()
        for lpn in range(policy.total_pages):
            shard, local = policy.route(lpn)
            assert 0 <= shard < 3
            assert 0 <= local < 8
            assert policy.unroute(shard, local) == lpn
            seen.add((shard, local))
        assert len(seen) == policy.total_pages

    def test_page_interleaved_is_round_robin(self):
        policy = PageInterleaved(num_shards=4, pages_per_shard=4)
        assert [policy.route(lpn)[0] for lpn in range(8)] == [
            0, 1, 2, 3, 0, 1, 2, 3,
        ]

    def test_contiguous_range_is_locality_preserving(self):
        policy = ContiguousRange(num_shards=4, pages_per_shard=4)
        assert [policy.route(lpn)[0] for lpn in range(8)] == [
            0, 0, 0, 0, 1, 1, 1, 1,
        ]

    @pytest.mark.parametrize("cls", [PageInterleaved, ContiguousRange])
    def test_one_shard_is_identity(self, cls):
        policy = cls(num_shards=1, pages_per_shard=16)
        for lpn in range(16):
            assert policy.route(lpn) == (0, lpn)

    def test_out_of_range_raises(self):
        policy = PageInterleaved(num_shards=2, pages_per_shard=4)
        with pytest.raises(ValueError, match="out of range"):
            policy.route(8)
        with pytest.raises(ValueError, match="out of range"):
            policy.route(-1)

    def test_invalid_shapes_raise(self):
        with pytest.raises(ValueError):
            PageInterleaved(num_shards=0, pages_per_shard=4)
        with pytest.raises(ValueError):
            ContiguousRange(num_shards=2, pages_per_shard=0)

    def test_make_striping(self):
        assert isinstance(make_striping("page", 2, 4), PageInterleaved)
        assert isinstance(make_striping("range", 2, 4), ContiguousRange)
        assert striping_names() == ["page", "range"]
        with pytest.raises(ValueError, match="unknown striping"):
            make_striping("diagonal", 2, 4)


# ----------------------------------------------------------------------
# Span routing and the compiled dispatcher (hot-path fusions)
# ----------------------------------------------------------------------
class TestSpanRouting:
    """``compile_pages_dispatch`` against the generic ``route_batch``
    reference: same batches, same visit order, same errors, same
    power-loss accounting."""

    POLICIES = [PageInterleaved, ContiguousRange]

    @staticmethod
    def _recording_dispatch(policy):
        """Compile a dispatcher whose span ops record ``(shard, local)``."""
        applied: list[tuple[int, int]] = []

        def make_op(shard):
            def op(local_lpns):
                applied.extend((shard, local) for local in local_lpns)
                return len(local_lpns)
            return op

        fallback_batches: list[list[int]] = []

        def fallback(lpns):
            fallback_batches.append(list(lpns))
            return len(lpns)

        dispatch = policy.compile_pages_dispatch(
            [make_op(s) for s in range(policy.num_shards)], fallback
        )
        return dispatch, applied, fallback_batches

    @pytest.mark.parametrize("cls", POLICIES)
    def test_compiled_dispatch_matches_route_batch_order(self, cls):
        rng = random.Random(23)
        for _ in range(500):
            shards = rng.randint(1, 7)
            per_shard = rng.randint(1, 50)
            policy = cls(shards, per_shard)
            start = rng.randrange(policy.total_pages)
            stop = rng.randint(start + 1, policy.total_pages)
            dispatch, applied, fallback = self._recording_dispatch(policy)
            done = dispatch(range(start, stop))
            buffers = [[] for _ in range(shards)]
            policy.route_batch(range(start, stop), buffers)
            expect = [
                (s, local) for s, batch in enumerate(buffers) for local in batch
            ]
            assert applied == expect, (shards, per_shard, start, stop)
            assert done == stop - start
            assert fallback == []

    @pytest.mark.parametrize("cls", POLICIES)
    def test_compiled_dispatch_single_page_and_fallback(self, cls):
        policy = cls(3, 8)
        dispatch, applied, fallback = self._recording_dispatch(policy)
        assert dispatch([13]) == 1
        assert applied == [policy.route(13)]
        with pytest.raises(ValueError, match="out of range"):
            dispatch([24])
        with pytest.raises(ValueError, match="out of range"):
            dispatch(range(20, 30))
        # Non-range multi-page batches (the lba-modulo wrap shape) are
        # delegated untouched to the generic buffered path.
        applied.clear()
        assert dispatch([5, 2, 7]) == 3
        assert fallback == [[5, 2, 7]] and applied == []

    @pytest.mark.parametrize("cls", POLICIES)
    def test_compiled_dispatch_rejects_op_count_mismatch(self, cls):
        policy = cls(3, 8)
        with pytest.raises(ValueError, match="page operations"):
            policy.compile_pages_dispatch(
                [lambda local_lpns: 0] * 2, lambda b: 0
            )

    @pytest.mark.parametrize("cls", POLICIES)
    def test_compiled_dispatch_power_loss_accounting(self, cls):
        rng = random.Random(37)
        for _ in range(200):
            shards = rng.randint(1, 5)
            per_shard = rng.randint(1, 30)
            policy = cls(shards, per_shard)
            start = rng.randrange(policy.total_pages)
            stop = rng.randint(start + 1, policy.total_pages)
            fail_at = rng.randrange(stop - start)
            applied: list[tuple[int, int]] = []

            def make_op(shard):
                # A shard's batch entry counts its own completed pages
                # onto the exception, as StorageStack.write_pages does.
                def op(local_lpns):
                    done = 0
                    for local in local_lpns:
                        if len(applied) == fail_at:
                            exc = PowerLossError("lights out", op_ordinal=0)
                            exc.pages_done = done
                            raise exc
                        applied.append((shard, local))
                        done += 1
                    return done
                return op

            dispatch = policy.compile_pages_dispatch(
                [make_op(s) for s in range(shards)], lambda b: 0
            )
            with pytest.raises(PowerLossError) as caught:
                dispatch(range(start, stop))
            # The pages-completed count carried by the exception equals
            # the number of pages applied, across shards, before the loss.
            assert caught.value.pages_done == fail_at, (
                shards, per_shard, start, stop
            )
            assert len(applied) == fail_at


# ----------------------------------------------------------------------
# The batched dispatcher
# ----------------------------------------------------------------------
class TestDispatcher:
    def _array(self, small_geometry, channels=2, driver="ftl", **kwargs):
        return build_array(
            small_geometry, driver, channels=channels, rng=make_rng(7), **kwargs
        )

    def test_writes_fan_out_across_shards(self, small_geometry):
        array = self._array(small_geometry)
        assert array.write_pages([0, 1, 2, 3]) == 4
        per_shard = [shard.layer.stats.host_writes for shard in array.shards]
        assert per_shard == [2, 2]

    def test_range_striping_concentrates_on_one_shard(self, small_geometry):
        array = self._array(small_geometry, striping="range")
        array.write_pages([0, 1, 2, 3])
        per_shard = [shard.layer.stats.host_writes for shard in array.shards]
        assert per_shard == [4, 0]

    def test_aggregates_sum_over_shards(self, small_geometry):
        array = self._array(small_geometry)
        array.write_pages(list(range(8)))
        assert array.layer_stats()["host_writes"] == 8
        assert len(array.erase_counts) == 2 * small_geometry.num_blocks
        shards = array.shard_erase_distributions()
        assert [d.blocks for d in shards] == [small_geometry.num_blocks] * 2
        assert sum(d.total for d in shards) == array.total_erases()
        assert array.total_erases() == sum(array.erase_counts)

    def test_backend_protocol(self, small_geometry):
        array = self._array(small_geometry)
        assert isinstance(array, StorageBackend)
        assert array.num_shards == 2
        assert array.num_logical_pages == 2 * array.shards[0].num_logical_pages

    @pytest.mark.parametrize("op", ["read_pages", "write_pages"])
    @pytest.mark.parametrize("span, prefix", [
        (lambda n: range(n - 3, n + 2), 3),
        (lambda n: list(range(n - 3, n + 2)), 3),
        (lambda n: (n,), 0),
        (lambda n: range(-2, 3), 0),
    ], ids=["range", "list", "single", "negative-start"])
    @pytest.mark.parametrize("channels", [1, 4])
    @pytest.mark.parametrize("driver", ["ftl", "nftl"])
    def test_out_of_range_page_is_a_flash_error_on_either_backend(
        self, small_geometry, driver, channels, span, prefix, op
    ):
        """The StorageBackend error contract: ``except FlashError`` catches
        an out-of-range page on a stack and on an array, and ``pages_done``
        says how much was applied before it — through a driver's span
        entries (FTL) and through the per-page loop (NFTL) alike."""
        if channels == 1:
            backend = build_stack(small_geometry, driver, rng=make_rng(7))
        else:
            backend = build_array(
                small_geometry, driver, channels=channels, rng=make_rng(7)
            )
        pages = backend.num_logical_pages
        backend.write_pages(range(pages - 8, pages))
        counted = "host_reads" if op == "read_pages" else "host_writes"
        before = backend.layer_stats()
        busy = backend.busy_time
        with pytest.raises(FlashError, match="out of range") as caught:
            getattr(backend, op)(span(pages))
        assert isinstance(caught.value, TranslationError)
        assert isinstance(caught.value, ValueError)  # what striping's callers catch
        if channels == 1:  # a stack applies the in-range prefix first
            assert caught.value.pages_done == prefix
            assert backend.layer_stats()[counted] - before[counted] == prefix
        else:  # an array validates the whole span before touching a shard
            assert caught.value.pages_done == 0
            assert (backend.layer_stats(), backend.busy_time) == (before, busy)

    @pytest.mark.parametrize("driver, striping, batch", [
        ("ftl", "page", range),    # the compiled page-interleaved dispatch
        ("ftl", "range", range),   # the compiled contiguous-range dispatch
        ("ftl", "page", list),     # the generic buffered dispatcher
        ("nftl", "page", range),   # both, over the per-page shard entry
        ("nftl", "page", list),
    ])
    def test_pages_done_counts_every_shard_on_any_flash_error(
        self, small_geometry, driver, striping, batch
    ):
        """A batch ended by a flash error other than a power loss still
        reports the pages the chips programmed: the earlier shards' plus
        the failing shard's own (only PowerLossError used to)."""
        array = self._array(
            small_geometry, channels=4, driver=driver, striping=striping
        )
        if striping == "page":   # two pages per shard; shard 2 fails
            span, failing, landed = range(8), 2, 2 + 2 + 1
        else:                    # the tail of shard 0, the head of shard 1
            per_shard = array.striping.pages_per_shard
            span, failing, landed = range(per_shard - 2, per_shard + 2), 1, 3
        array.write_pages(span)
        array.write_pages(span)  # NFTL: every chain now appends to a replacement
        # Behind the failing shard's back, use up the page after its next
        # one, so it lands one page and then hits a non-free page.
        victim = array.shards[failing]
        if driver == "ftl":
            block, page = victim.layer._host_frontier
        else:
            chain = victim.layer._chains[0]
            block, page = chain.replacement, chain.repl_next
        victim.flash.program(block, page + 1, lba=0)
        programmed = sum(s.flash.counters.programs for s in array.shards)
        with pytest.raises(FlashError) as caught:
            array.write_pages(span if batch is range else list(span))
        assert not isinstance(caught.value, PowerLossError)
        assert caught.value.pages_done == landed
        assert sum(
            s.flash.counters.programs for s in array.shards
        ) - programmed == landed

    def test_validation(self, small_geometry):
        shard = build_stack(small_geometry, "ftl")
        with pytest.raises(ValueError, match="at least one shard"):
            DeviceArray([], PageInterleaved(1, 4))
        with pytest.raises(ValueError, match="routes 2 shards"):
            DeviceArray([shard], PageInterleaved(2, shard.num_logical_pages))
        with pytest.raises(ValueError, match="pages per"):
            DeviceArray([shard], PageInterleaved(1, 4))
        with pytest.raises(ValueError, match="channels must be positive"):
            build_array(small_geometry, "ftl", channels=0)


# ----------------------------------------------------------------------
# Wear coordination
# ----------------------------------------------------------------------
class TestWearCoordinator:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown coordinator scope"):
            WearCoordinator(100.0, scope="galactic")
        with pytest.raises(ValueError, match="must be positive"):
            WearCoordinator(0.0)
        assert SCOPES == ("per-shard", "global")

    def test_per_shard_scope_never_runs_global_checks(self, small_geometry):
        array = build_array(
            small_geometry, "ftl", SWLConfig(threshold=5, k=0),
            channels=2, swl_scope="per-shard", rng=make_rng(3),
        )
        simulator = Simulator(array)
        stream = skewed_page_stream(array.num_logical_pages, seed=3)
        for step, lpn in stream:
            if step >= 30_000:
                break
            simulator.apply(write(float(step), lpn * array.sectors_per_page,
                                  array.sectors_per_page))
        stats = array.swl_stats()
        assert stats["coord_global_checks"] == 0
        assert stats.get("swl_runs", 0) > 0 or stats.get("bet_resets", 0) >= 0

    def test_global_scope_levels_the_hot_shard(self, small_geometry):
        array = build_array(
            small_geometry, "ftl", SWLConfig(threshold=5, k=0),
            channels=2, striping="range", swl_scope="global", rng=make_rng(3),
        )
        simulator = Simulator(array)
        pages_per_shard = array.striping.pages_per_shard
        # Hammer shard 0's range only; shard 1 stays cold.
        stream = skewed_page_stream(pages_per_shard, seed=5)
        for step, lpn in stream:
            if step >= 30_000:
                break
            simulator.apply(write(float(step), lpn * array.sectors_per_page,
                                  array.sectors_per_page))
        coordinator = array.coordinator
        assert coordinator is not None
        assert coordinator.stats.global_checks > 0
        assert coordinator.stats.global_runs > 0
        assert sum(coordinator.stats.shard_runs.values()) == (
            coordinator.stats.global_runs
        )
        # The hot shard is the one the coordinator levels.
        assert coordinator.stats.shard_runs.get(0, 0) > 0
        stats = array.swl_stats()
        assert stats["coord_global_runs"] == coordinator.stats.global_runs

    def test_aggregate_unevenness(self, small_geometry):
        array = build_array(
            small_geometry, "ftl", SWLConfig(threshold=1000, k=0),
            channels=2, rng=make_rng(3),
        )
        coordinator = array.coordinator
        assert coordinator is not None
        assert coordinator.unevenness() == 0.0  # no erases yet
        array.write_pages(list(range(array.num_logical_pages)) * 4)
        assert coordinator.ecnt == sum(
            shard.leveler.bet.ecnt for shard in array.shards
        )
        if coordinator.fcnt:
            assert coordinator.unevenness() == pytest.approx(
                coordinator.ecnt / coordinator.fcnt
            )


# ----------------------------------------------------------------------
# 1-channel equivalence: the array must be invisible at N = 1
# ----------------------------------------------------------------------
class TestSingleChannelEquivalence:
    # T and k drawn from the paper's Table 2 configurations.
    CONFIGS = [(100.0, 0), (100.0, 3), (1000.0, 0)]

    @staticmethod
    def _run(backend, seed):
        simulator = Simulator(backend)
        stream = skewed_page_stream(backend.num_logical_pages, seed=seed)
        spp = backend.sectors_per_page

        def requests():
            for step, lpn in stream:
                yield write(float(step), lpn * spp, spp)

        stop = StopCondition(until_first_failure=True, max_requests=300_000)
        return simulator.run(requests(), stop, label="run")

    @pytest.mark.parametrize("threshold,k", CONFIGS)
    def test_wrapped_array_is_bit_identical(self, small_geometry, threshold, k):
        swl = SWLConfig(threshold=threshold, k=k)
        single = build_stack(
            small_geometry, "ftl", swl,
            rng=spawn_rng(make_rng(11), "leveler"),
        )
        shard = build_stack(
            small_geometry, "ftl", swl,
            rng=spawn_rng(make_rng(11), "leveler"),
        )
        array = DeviceArray(
            [shard], PageInterleaved(1, shard.num_logical_pages)
        )
        result_single = self._run(single, seed=11)
        result_array = self._run(array, seed=11)
        assert list(single.erase_counts) == list(array.erase_counts)
        assert result_single.first_failure_time == result_array.first_failure_time
        assert single.swl_stats() == shard.swl_stats()
        assert result_single.as_dict() == result_array.as_dict()
        assert result_array.channels == 1
        assert result_array.shard_erase_distributions == []

    def test_build_backend_dispatches_on_channels(self, small_geometry):
        # ExperimentSpec.build is the one assembler: a stack for one
        # channel, an array for more.
        spec = ExperimentSpec("ftl", small_geometry)
        single = spec.build()
        assert isinstance(single, StorageStack)
        array = replace(spec, channels=2).build()
        assert isinstance(array, DeviceArray)
        assert isinstance(single, StorageBackend)

    def test_spec_channels_default_matches_explicit_one(self, small_geometry):
        base = ExperimentSpec("ftl", small_geometry, SWLConfig(threshold=50),
                              seed=4)
        explicit = ExperimentSpec("ftl", small_geometry,
                                  SWLConfig(threshold=50), seed=4, channels=1)
        assert base.label() == explicit.label()
        result_a = self._run(base.build(), seed=4)
        result_b = self._run(explicit.build(), seed=4)
        assert result_a.as_dict() == result_b.as_dict()

    def test_multi_channel_label(self, small_geometry):
        spec = ExperimentSpec(
            "ftl", small_geometry, SWLConfig(threshold=100), seed=0,
            channels=4, striping="page", swl_scope="global",
        )
        assert spec.label().endswith("x4[page,global]")


# ----------------------------------------------------------------------
# Multi-channel replay through the engine
# ----------------------------------------------------------------------
class TestMultiChannelReplay:
    def test_four_channel_run_reports_per_shard(self, small_geometry):
        array = build_array(
            small_geometry, "ftl", SWLConfig(threshold=100, k=0),
            channels=4, swl_scope="global", rng=make_rng(2),
        )
        simulator = Simulator(array)
        stream = skewed_page_stream(array.num_logical_pages, seed=2)
        spp = array.sectors_per_page

        def requests():
            for step, lpn in stream:
                yield write(float(step), lpn * spp, spp)

        result = simulator.run(
            requests(), StopCondition(max_requests=20_000), label="x4"
        )
        assert result.channels == 4
        assert len(result.shard_erase_distributions) == 4
        # The merged aggregate must be exact: identical to a flat
        # distribution over all blocks of all shards.
        flat = EraseDistribution.from_counts(array.erase_counts)
        merged = result.erase_distribution
        assert merged.total == flat.total
        assert merged.maximum == flat.maximum
        assert merged.minimum == flat.minimum
        assert merged.blocks == flat.blocks
        assert merged.average == pytest.approx(flat.average)
        assert merged.deviation == pytest.approx(flat.deviation)

    def test_first_failure_comes_from_any_shard(self, small_geometry):
        array = build_array(
            small_geometry, "ftl", channels=2, striping="range",
            rng=make_rng(9),
        )
        simulator = Simulator(array)
        pages_per_shard = array.striping.pages_per_shard
        spp = array.sectors_per_page
        # Hammer shard 1's range until a block there wears out.
        stream = skewed_page_stream(pages_per_shard, seed=9)

        def requests():
            for step, lpn in stream:
                yield write(float(step), (pages_per_shard + lpn) * spp, spp)

        result = simulator.run(
            requests(),
            StopCondition(until_first_failure=True, max_requests=500_000),
        )
        assert result.first_failure_time is not None
        assert array.shards[0].first_failure is None
        assert array.shards[1].first_failure is not None


# ----------------------------------------------------------------------
# Parallel experiment matrix
# ----------------------------------------------------------------------
class TestRunMatrixWorkers:
    def test_parallel_results_identical_to_serial(self):
        geometry = scaled_mlc2_geometry(24, scale=100)
        specs = [
            ExperimentSpec("ftl", geometry, SWLConfig(threshold=t, k=0),
                           seed=6)
            for t in (100.0, 1000.0)
        ]
        params = workload_params_for(specs[0], duration=0.02 * 86_400, seed=8)
        workload = MobilePCWorkload(params)
        trace = workload.requests()
        serial = run_matrix(specs, trace, horizon=0.02 * 86_400)
        parallel = run_matrix(specs, trace, horizon=0.02 * 86_400, workers=2)
        assert len(serial) == len(parallel) == 2
        for a, b in zip(serial, parallel):
            assert a.as_dict() == b.as_dict()
            assert a.erase_distribution == b.erase_distribution

    def test_workers_one_is_serial(self):
        geometry = scaled_mlc2_geometry(24, scale=100)
        spec = ExperimentSpec("ftl", geometry, seed=1)
        params = workload_params_for(spec, duration=0.01 * 86_400, seed=1)
        trace = MobilePCWorkload(params).requests()
        results = run_matrix([spec], trace, horizon=0.01 * 86_400, workers=4)
        assert len(results) == 1  # single spec short-circuits to serial


# ----------------------------------------------------------------------
# Per-shard fault plans
# ----------------------------------------------------------------------
class TestFaultPlanSharding:
    def test_shard_seeds_deterministic_and_distinct(self):
        plan = FaultPlan(seed=42, erase_fail_prob=0.01)
        seeds = [plan.for_shard(index).seed for index in range(4)]
        assert len(set(seeds)) == 4
        assert seeds == [plan.for_shard(index).seed for index in range(4)]
        assert plan.for_shard(0).erase_fail_prob == plan.erase_fail_prob

    def test_power_loss_schedule_stays_on_shard_zero(self):
        plan = FaultPlan(seed=1, power_loss_at=(10, 20))
        assert plan.for_shard(0).power_loss_at == (10, 20)
        assert plan.for_shard(1).power_loss_at == ()
        assert plan.for_shard(3).power_loss_at == ()

    def test_negative_index_raises(self):
        with pytest.raises(ValueError):
            FaultPlan(seed=1).for_shard(-1)

    def test_array_gets_one_injector_per_shard(self, small_geometry):
        plan = FaultPlan(seed=3, erase_fail_prob=0.05)
        array = build_array(
            small_geometry, "ftl", channels=2, rng=make_rng(1),
            fault_plan=plan,
        )
        injectors = {id(shard.flash.injector) for shard in array.shards}
        assert len(injectors) == 2
        assert all(shard.flash.injector is not None for shard in array.shards)
