"""Combining cache: the software fetch&add."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.harness import fingerprint
from repro.kvmsr import CombiningCache, KVMSRJob, MapTask, RangeInput, ReduceTask, job_of
from repro.machine import bench_machine
from repro.udweave import UDThread, UpDownRuntime, event


def run_driver(rt, body):
    """Run a single device event executing ``body(ctx)``."""

    @rt.register
    class _Driver(UDThread):
        @event
        def go(self, ctx):
            body(ctx)
            ctx.yield_terminate()

    rt.start(0, "_Driver::go")
    rt.run(max_events=100_000)


class TestCacheOps:
    def test_add_and_get(self):
        rt = UpDownRuntime(bench_machine(nodes=1))
        cache = CombiningCache("t")

        def body(ctx):
            cache.add(ctx, "k", 2)
            cache.add(ctx, "k", 3)
            assert cache.get(ctx, "k") == 5
            assert cache.get(ctx, "missing", -1) == -1
            assert cache.resident_keys(ctx) == ("k",)

        run_driver(rt, body)

    def test_flush_drains_and_clears(self):
        rt = UpDownRuntime(bench_machine(nodes=1))
        cache = CombiningCache("t")
        drained = {}

        def body(ctx):
            cache.add(ctx, "a", 1)
            cache.add(ctx, "b", 10)
            n = cache.flush(ctx, lambda c, k, v: drained.__setitem__(k, v))
            assert n == 2
            assert cache.resident_keys(ctx) == ()
            assert cache.get(ctx, "a") is None

        run_driver(rt, body)
        assert drained == {"a": 1, "b": 10}

    def test_flush_empty_cache(self):
        rt = UpDownRuntime(bench_machine(nodes=1))
        cache = CombiningCache("t")

        def body(ctx):
            assert cache.flush(ctx, lambda c, k, v: None) == 0

        run_driver(rt, body)

    def test_flush_to_region_stores(self):
        rt = UpDownRuntime(bench_machine(nodes=1))
        reg = rt.dram_malloc(8 * 8, dtype=np.float64, name="out")
        reg[:] = 1.0
        cache = CombiningCache("t")

        def body(ctx):
            cache.add(ctx, 2, 5.0)
            cache.flush_to_region(ctx, reg)

        run_driver(rt, body)
        assert reg[2] == 5.0  # overwrote the 1.0
        assert reg[3] == 1.0  # an uncached key is not touched

    def test_flush_leaves_no_tombstones(self):
        """Drained slots must be freed, not overwritten with ``None`` —
        a tombstone keeps occupying scratchpad across epochs."""
        rt = UpDownRuntime(bench_machine(nodes=1))
        cache = CombiningCache("t")
        leftovers = []

        def body(ctx):
            cache.add(ctx, "a", 1)
            cache.add(ctx, "b", 2)
            cache.flush(ctx, lambda c, k, v: None)
            leftovers.extend(
                k for k in ctx.lane.scratchpad
                if isinstance(k, tuple) and k[:2] == ("cc", "t")
            )

        run_driver(rt, body)
        assert leftovers == []

    def test_store_flush_reads_nothing(self):
        rt = UpDownRuntime(bench_machine(nodes=1))
        reg = rt.dram_malloc(8 * 4, dtype=np.float64, name="out")
        cache = CombiningCache("t")

        def body(ctx):
            cache.add(ctx, 0, 1.0)
            cache.flush_to_region(ctx, reg)
            body.reads = ctx.runtime.sim.stats.dram_reads

        run_driver(rt, body)
        assert body.reads == 0

    def test_hit_cheaper_than_miss(self):
        rt = UpDownRuntime(bench_machine(nodes=1))
        cache = CombiningCache("t")
        costs = []

        def body(ctx):
            before = ctx.cycles
            cache.add(ctx, "k", 1)
            miss = ctx.cycles - before
            before = ctx.cycles
            cache.add(ctx, "k", 1)
            hit = ctx.cycles - before
            costs.append((miss, hit))

        run_driver(rt, body)
        miss, hit = costs[0]
        assert hit < miss


class TestSumPreservation:
    @given(
        updates=st.lists(
            st.tuples(st.integers(0, 7), st.integers(-100, 100)),
            max_size=60,
        )
    )
    def test_cache_preserves_sums(self, updates):
        """Σ flushed values per key == Σ updates per key, always."""
        rt = UpDownRuntime(bench_machine(nodes=1))
        cache = CombiningCache("sum")
        drained = {}

        def body(ctx):
            for k, d in updates:
                cache.add(ctx, k, d)
            cache.flush(ctx, lambda c, k, v: drained.__setitem__(k, v))

        run_driver(rt, body)
        expected = {}
        for k, d in updates:
            expected[k] = expected.get(k, 0) + d
        assert drained == expected


def _fetch_add_job(shards, batch_dispatch):
    """100 skewed emits over 4 keys on 4 nodes, flushed to a zeroed
    region: returns the region's data, the run's fingerprint and how
    many reduce records the batch core ran."""
    rt = UpDownRuntime(
        bench_machine(nodes=4, batch_dispatch=batch_dispatch), shards=shards
    )
    reg = rt.dram_malloc(8 * 4, name="totals")
    cache = CombiningCache("fa")

    class FanMap(MapTask):
        def kv_map(self, ctx, key):
            self.kv_emit(ctx, key % 4, 1)
            self.kv_map_return(ctx)

    class AddReduce(ReduceTask):
        intrinsic_only = True

        def kv_reduce(self, ctx, key, delta):
            cache.add(ctx, key, delta)
            self.kv_reduce_return(ctx)

        def kv_flush(self, ctx):
            n = cache.flush_to_region(ctx, reg)
            self.kv_flush_return(ctx, n)

    KVMSRJob(rt, FanMap, RangeInput(100), reduce_cls=AddReduce).launch()
    rt.run(max_events=1_000_000)
    stats = rt.sim.stats
    return list(reg.data), fingerprint(rt.sim, reg.data), stats.records_batched


class TestEndToEndFetchAdd:
    def test_concurrent_reduces_accumulate_exactly(self):
        """The PR pattern: skewed emits, one cache per owner lane, exact
        totals after flush (the atomicity claim of footnote 1) — and the
        same machine run in every execution mode.  The owner lanes and
        the region's words sit on different nodes, so at ``shards`` 2
        and 4 the flush's stores cross shard boundaries."""
        totals, reference, _ = _fetch_add_job(1, False)
        assert totals == [25, 25, 25, 25]
        for shards in (1, 2, 4):
            for batch_dispatch in (True, False):
                cell = (shards, batch_dispatch)
                totals, fp, batched = _fetch_add_job(*cell)
                assert totals == [25, 25, 25, 25], cell
                assert fp == reference, cell
                assert (batched > 0) == batch_dispatch, cell
