"""Parked records at the window rules and the observation points.

Sharded drains park batch-safe reduce records exactly like the
sequential drain (DESIGN.md "Conservative parallel execution").  These
tests pin the cases the window loop must get right: records two shards
park onto one lane in the same window land in ``(time, seq)`` order, a
once-guard may read a flag the destination shard set *ahead* of the
emitter's simulated time, and a bounded drain that leaves records parked
is not quiesced.  A peek at a sibling lane's pooled scratchpad lands
the records parked there first.  The reference is always the
interpreted sequential run.
"""

from collections import defaultdict

import pytest

from repro.harness import bench_config, fingerprint
from repro.kvmsr import (
    CombiningCache,
    KVMSRJob,
    MapTask,
    RangeInput,
    ReduceTask,
    emit_to_reduce,
)
from repro.machine import bench_machine
from repro.udweave import UDThread, UpDownRuntime, event

NODES = 2


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
    return fingerprint(rt.sim)


class TestCrossShardFanIn:
    def test_two_shards_park_onto_one_lane_in_one_window(self, monkeypatch):
        shd = _fan_in(shards=2)
        sim = shd.sim
        landed = defaultdict(set)  # (window, lane) -> source shards
        real_issue = sim.issue  # the one site that parks records

        def spy(src_nwid, src_node, run, plan=None):
            for _t, nwid, payload in run:
                if payload.__class__ is tuple:  # parked, not sent
                    landed[sim._scheduler.windows, nwid].add(
                        sim._shard_of_node[src_node]
                    )
            return real_issue(src_nwid, src_node, run, plan)

        monkeypatch.setattr(sim, "issue", spy)
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
            runs[shards, batch] = fingerprint(rt.sim), row
        ref = runs[1, False][0]
        (seq, seq_row), (shd, shd_row) = runs[1, True], runs[2, True]
        assert seq == ref and shd == ref
        assert shd_row["lowered"]
        assert shd_row["parked"] > seq_row["parked"]
        assert (
            shd_row["parked"] + shd_row["guard_declined"]
            == seq_row["parked"] + seq_row["guard_declined"]
        )


def _emitter(shards):
    """A runtime whose one event emits four reduce tuples and terminates
    at once, leaving nothing but parked records in flight; and its job."""
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
    return rt, job


class TestSettleCountsParkedRecords:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_step_that_leaves_records_parked_is_not_quiesced(self, shards):
        """An emitter that terminates at once leaves nothing but parked
        reduce records: no heap entry, host mail or live thread.  A
        bound between issue and delivery must still say not quiesced."""
        rt, _job = _emitter(shards)
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

    @pytest.mark.parametrize("shards", [1, 2])
    def test_stall_dump_names_the_parked_records(self, shards):
        """A bound that leaves only parked records dumps no next event,
        so the dump lists the earliest parked ones, in pop order."""
        rt, job = _emitter(shards)
        sim = rt.sim
        t = 0.0
        while not sim._parked_total:
            t += 1.0
            sim.run(until=t)
        dump = sim.stall_dump(limit=3)
        assert dump["next_events"] == []
        assert dump["parked_records"] == 4
        label = "_SumReduce::__reduce_entry__"
        assert [lbl for *_, lbl in dump["next_parked"]] == [label] * 3
        lanes = {
            job.reduce_binding.lane_for(k, job.reduce_lanes) for k in range(4)
        }
        everything = sim.stall_dump(limit=8)["next_parked"]
        assert {nwid for _t, nwid, _l in everything} == lanes
        assert everything[:3] == dump["next_parked"]
        assert everything == sorted(everything)
        assert all(t0 > t for t0, _n, _l in everything)


def _pooled_peeks(batch, sibling, reader, n=8):
    """Lane 4 emits ``n`` tuples for a key reduced on ``sibling``; lane 5
    sends ``reader``, in the same accelerator, ``n`` peeks that copy the
    key's sum via ``sp_read_pooled``, some on the tick of a parked record.
    Returns the fingerprint and, per peek, whether it tied a record."""
    rt = UpDownRuntime(bench_machine(
        nodes=1, accels_per_node=2, lanes_per_accel=4, batch_dispatch=batch,
    ))
    cache = CombiningCache("pooled")
    # never launched: the emitter below feeds its reduce phase directly
    job = KVMSRJob(rt, _FanInMap, RangeInput(1), reduce_cls=_SumReduce,
                   payload=cache)
    key = next(k for k in range(64)
               if job.reduce_binding.lane_for(k, job.reduce_lanes) == sibling)
    ties = []

    @rt.register
    class Pooled(UDThread):
        @event
        def emit(self, ctx):
            for i in range(n):
                emit_to_reduce(ctx, job.job_id, key, float(i + 1))
                ctx.work(1)
            ctx.yield_terminate()

        @event
        def kick(self, ctx):
            for i in range(n):
                ctx.spawn(reader, "Pooled::peek", i)
                ctx.work(1)
            ctx.yield_terminate()

        @event
        def peek(self, ctx, i):
            parked = ctx.sim.lane(sibling).parked_records()
            ties.append(any(t == ctx.sim.now for t, *_ in parked))
            ctx.sp_write(i, ctx.sp_read_pooled(sibling, cache._val_key(key)))
            ctx.yield_terminate()

    rt.start(4, "Pooled::emit")
    rt.start(5, "Pooled::kick")
    assert rt.run(max_events=10_000).quiesced
    return fingerprint(rt.sim), ties


class TestPooledScratchpadFlush:
    """``Simulator._cut_before``: records parked on a sibling that pop
    before a peek at its scratchpad land first — same-tick records
    included when the sibling's nwid is below the reader's (the heap
    breaks time ties by lane), excluded when it is above."""

    @pytest.mark.parametrize(
        "sibling,reader", [(0, 1), (1, 0)], ids=["below", "above"]
    )
    def test_peeks_see_what_the_interpreter_sees(self, sibling, reader):
        out, ties = _pooled_peeks(True, sibling, reader)
        assert out == _pooled_peeks(False, sibling, reader)[0]
        assert any(ties)  # records were parked, some on a peek's tick
