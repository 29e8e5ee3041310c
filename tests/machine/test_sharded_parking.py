"""Batched dispatch inside shard windows: the three window rules.

Sharded drains park batch-safe reduce records exactly like the
sequential drain (DESIGN.md "Conservative parallel execution").  These
tests pin the cases the window loop must get right: records two shards
park onto one lane in the same window land in ``(time, seq)`` order, a
once-guard may read a flag the destination shard set *ahead* of the
emitter's simulated time, and a bounded drain that leaves records parked
is not quiesced.  The reference is always the sequential run.
"""

from collections import defaultdict

import pytest

from repro.harness import bench_config
from repro.kvmsr import (
    CombiningCache,
    KVMSRJob,
    MapTask,
    RangeInput,
    ReduceTask,
    emit_to_reduce,
)
from repro.machine import simulator
from repro.machine.simulator import ACTOR_SEQ_BITS
from repro.udweave import UDThread, UpDownRuntime, event

NODES = 2


def _state(rt):
    """Model fingerprint, per-lane busy cycles and every scratchpad."""
    sim = rt.sim
    stats = sim.stats
    assert (
        stats.records_batched + stats.events_interpreted
        == stats.events_executed
    )
    return {
        "model": stats.model_snapshot(),
        "busy": dict(stats.busy_cycles_by_lane),
        "mailbox": [(t, rec.label, rec.operands) for t, rec in sim.host_inbox],
        "scratchpads": {
            nwid: dict(ln.scratchpad) for nwid, ln in sim._lanes.items()
        },
    }


class _FanInMap(MapTask):
    """Every task adds a distinct reciprocal into each of a few keys."""

    def kv_map(self, ctx, key):
        self.kv_emit_many(ctx, range(4), 1.0 / (key + 3), work=1)
        self.kv_map_return(ctx)


class _SumReduce(ReduceTask):
    intrinsic_only = True

    def kv_reduce(self, ctx, key, value):
        # float sums are order-sensitive: a record landing out of key
        # order changes the scratchpad value
        self.job(ctx).payload.add(ctx, key, value)
        self.kv_reduce_return(ctx)


def _fan_in(shards, batch=True):
    """The fan-in job, launched but not yet drained."""
    # four nodes: node 1 starts mapping while node 0 still emits
    rt = UpDownRuntime(bench_config(4, batch_dispatch=batch), shards=shards)
    KVMSRJob(
        rt, _FanInMap, RangeInput(96), reduce_cls=_SumReduce,
        payload=CombiningCache("fan_in"),
    ).launch()
    return rt


def _drained(rt):
    rt.run(max_events=1_000_000)
    return _state(rt)


class TestCrossShardFanIn:
    def test_two_shards_park_onto_one_lane_in_one_window(self, monkeypatch):
        shd = _fan_in(shards=2)
        sim = shd.sim
        landed = defaultdict(set)  # (window, parked list) -> source shards
        real_insort = simulator.insort  # the issue site's parking step

        def spy(lst, entry):
            src_nwid = (entry[1] >> ACTOR_SEQ_BITS) - 1
            src_node = src_nwid // sim._lanes_per_node
            landed[sim._scheduler.windows, id(lst)].add(
                sim._shard_of_node[src_node]
            )
            real_insort(lst, entry)

        monkeypatch.setattr(simulator, "insort", spy)
        out = _drained(shd)
        monkeypatch.undo()
        assert any(len(src) == 2 for src in landed.values())
        assert sim.stats.records_batched > 0
        ref = _drained(_fan_in(shards=1, batch=False))
        assert out == ref
        assert _drained(_fan_in(shards=1)) == ref


class _SpreadMap(MapTask):
    """Tasks emit after key-dependent work, so emits to one key are
    spread across a window."""

    def kv_map(self, ctx, key):
        ctx.work((key * 37) % 400)
        self.kv_emit(ctx, key % 8, key)
        self.kv_map_return(ctx)


class _OnceReduce(ReduceTask):
    intrinsic_only = True

    def kv_reduce(self, ctx, key, value):
        if ctx.sp_once(("seen", key)):
            ctx.work(1)
            self.kv_reduce_return(ctx)
            return
        ctx.work(40)
        self.kv_reduce_return(ctx)


class TestCrossShardGuard:
    def test_flag_set_ahead_by_the_destination_shard(self):
        """Shard 0 runs first in every window, so an emit on shard 1 can
        find a once-flag that shard 0 set later in simulated time than
        the emit.  Sequentially the guard declines that tuple; sharded it
        parks.  Either way the visited arm runs at delivery, when the
        monotone flag is set — so only the host-split tallies differ."""
        runs = {}
        for shards, batch in ((1, False), (1, True), (2, True)):
            rt = UpDownRuntime(
                bench_config(NODES, batch_dispatch=batch), shards=shards
            )
            KVMSRJob(
                rt, _SpreadMap, RangeInput(64), reduce_cls=_OnceReduce,
            ).launch()
            rt.run(max_events=1_000_000)
            report = rt.sim.batch_report()
            row = report["labels"].get("_OnceReduce::__reduce_entry__")
            runs[shards, batch] = _state(rt), row, report["drains"]
        ref = runs[1, False][0]
        (seq, seq_row, _), (shd, shd_row, drains) = runs[1, True], runs[2, True]
        assert seq == ref and shd == ref
        assert drains == {"armed": 1}
        assert shd_row["parked"] > seq_row["parked"]
        assert (
            shd_row["parked"] + shd_row["guard_declined"]
            == seq_row["parked"] + seq_row["guard_declined"]
        )


class TestSettleCountsParkedRecords:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_step_that_leaves_records_parked_is_not_quiesced(self, shards):
        """An emitter that terminates at once leaves nothing but parked
        reduce records: no heap entry, host mail or live thread.  A
        bound between issue and delivery must still say not quiesced."""
        rt = UpDownRuntime(bench_config(NODES), shards=shards)
        job = KVMSRJob(
            rt, _FanInMap, RangeInput(1), reduce_cls=_SumReduce,
            payload=CombiningCache("settle"),
        )
        job_id = job.job_id

        @rt.register
        class Emitter(UDThread):
            @event
            def go(self, ctx):
                for key in range(4):
                    emit_to_reduce(ctx, job_id, key, 1.0)
                ctx.yield_terminate()

        rt.start(rt.config.lanes_per_node - 1, "Emitter::go")
        sim = rt.sim
        seen_parked_only = False
        for t in range(1, 10_000):
            stats = sim.run(until=float(t))
            parked = sim._parked_total
            queued = (
                any(sim._shard_heaps) if shards > 1 else bool(sim._heap)
            )
            if parked and not queued and not sim._live_threads():
                seen_parked_only = True
            assert stats.quiesced == (
                parked == 0 and not queued and not sim._live_threads()
            )
            if stats.quiesced:
                break
        assert stats.quiesced and seen_parked_only
        assert stats.records_batched == 4
