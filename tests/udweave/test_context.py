"""LaneContext: intrinsics, DRAM split-phase access, scratchpad, yields."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import FaultPlan
from repro.harness import fingerprint
from repro.machine import bench_machine
from repro.memmodel import MemoryError_
from repro.udweave import (
    MAX_DRAM_READ_WORDS,
    UDThread,
    UDWeaveError,
    UpDownRuntime,
    event,
)


def runtime(nodes=2):
    return UpDownRuntime(bench_machine(nodes=nodes))


class TestDramAccess:
    def test_read_roundtrip_with_tag(self):
        rt = runtime()
        reg = rt.dram_malloc(8 * 64, name="arr")
        reg[:] = range(64)
        got = []

        @rt.register
        class T(UDThread):
            @event
            def go(self, ctx):
                ctx.send_dram_read(reg.addr(8), 4, "back", tag="req1")
                ctx.yield_()

            @event
            def back(self, ctx, tag, *vals):
                got.append((tag, vals))
                ctx.yield_terminate()

        rt.start(0, "T::go")
        rt.run()
        assert got == [("req1", (8, 9, 10, 11))]

    def test_read_without_tag_has_plain_operands(self):
        rt = runtime()
        reg = rt.dram_malloc(8 * 8, name="arr")
        reg[:] = range(8)
        got = []

        @rt.register
        class T(UDThread):
            @event
            def go(self, ctx):
                ctx.send_dram_read(reg.addr(0), 2, "back")
                ctx.yield_()

            @event
            def back(self, ctx, a, b):
                got.append((a, b))
                ctx.yield_terminate()

        rt.start(0, "T::go")
        rt.run()
        assert got == [(0, 1)]

    def test_read_size_limits(self):
        rt = runtime()
        reg = rt.dram_malloc(8 * 64, name="arr")

        @rt.register
        class T(UDThread):
            @event
            def go(self, ctx):
                ctx.send_dram_read(reg.addr(0), MAX_DRAM_READ_WORDS + 1, "go")

        rt.start(0, "T::go")
        with pytest.raises(UDWeaveError, match="1..8"):
            rt.run()

    def test_write_then_read_sees_value(self):
        rt = runtime()
        reg = rt.dram_malloc(8 * 8, name="arr")
        got = []

        @rt.register
        class T(UDThread):
            @event
            def go(self, ctx):
                ctx.send_dram_write(reg.addr(3), [77], ack_label="wrote")
                ctx.yield_()

            @event
            def wrote(self, ctx):
                ctx.send_dram_read(reg.addr(3), 1, "back")
                ctx.yield_()

            @event
            def back(self, ctx, v):
                got.append(v)
                ctx.yield_terminate()

        rt.start(0, "T::go")
        rt.run()
        assert got == [77]

    def test_empty_write_rejected(self):
        rt = runtime()
        reg = rt.dram_malloc(64, name="arr")

        @rt.register
        class T(UDThread):
            @event
            def go(self, ctx):
                ctx.send_dram_write(reg.addr(0), [])

        rt.start(0, "T::go")
        with pytest.raises(UDWeaveError):
            rt.run()

    def test_dram_response_is_slower_when_remote(self):
        """Memory on node 1 read from node 0 pays the network round trip."""
        times = {}
        for first_node in (0, 1):
            rt = runtime(nodes=2)
            reg = rt.gmem.dram_malloc(
                4096, first_node, 1, 4096, name="arr"
            )

            @rt.register
            class T(UDThread):
                @event
                def go(self, ctx):
                    ctx.send_dram_read(reg.addr(0), 1, "back")
                    ctx.yield_()

                @event
                def back(self, ctx, v):
                    ctx.yield_terminate()

            rt.start(0, "T::go")
            stats = rt.run()
            times[first_node] = stats.final_tick
        assert times[1] > times[0] + 1000  # two remote hops


#: list-read differential: a 256-word region in 64-word swizzle blocks
LIST_WORDS = 256
BLOCK_WORDS = 64


def _read_list(vector, nwords, offset, work, tagged, nr_nodes, src_node,
               shards, delayed):
    """Run one list read on a two-node machine and return what it did.

    A ``kick`` on lane 0 spawns ``go`` on a lane of ``src_node`` (a
    remote send when that is node 1, so the delay plan can reorder it).
    ``go`` reads ``nwords`` words at word ``offset`` either through one
    ``send_dram_reads`` call or through the scalar loop it replaces;
    each response's delivery (push time and operands) is logged at the
    simulator's keying point.
    """
    plan = None
    if delayed:
        plan = FaultPlan(seed=5, delay_rate=0.5, delay_cycles=300.0)
    rt = UpDownRuntime(bench_machine(nodes=2), shards=shards, faults=plan)
    reg = rt.gmem.dram_malloc(
        8 * LIST_WORDS, 0, nr_nodes, 8 * BLOCK_WORDS, name="list"
    )
    reg[:] = range(1000, 1000 + LIST_WORDS)
    out = {"pushed": [], "handled": []}
    sim = rt.sim
    push = sim._push

    def logged(t, rec, actor):
        if getattr(rec, "kind", None) == "dram":
            out["pushed"].append((t, rec.operands))
        push(t, rec, actor)

    sim._push = logged
    lanes = rt.config.lanes_per_node
    src_lane = src_node * lanes + lanes - 1

    @rt.register
    class L(UDThread):
        @event
        def kick(self, ctx):
            ctx.spawn(src_lane, "L::go")
            ctx.yield_terminate()

        @event
        def go(self, ctx):
            va = reg.base + 8 * offset
            tag = "t" if tagged else None
            if vector:
                out["count"] = ctx.send_dram_reads(
                    va, nwords, "back", tag=tag, work=work
                )
            else:
                out["count"] = 0
                for i in range(0, nwords, MAX_DRAM_READ_WORDS):
                    k = min(MAX_DRAM_READ_WORDS, nwords - i)
                    ctx.send_dram_read(
                        va + 8 * i, k, "back",
                        tag=(tag, i) if tagged else None,
                    )
                    out["count"] += 1
                    if work:
                        ctx.work(work)
            out["cycles"] = ctx.cycles
            ctx.yield_()

        @event
        def back(self, ctx, *operands):
            out["handled"].append((ctx.start, operands))
            ctx.yield_()

    rt.start(0, "L::kick")
    rt.run()
    out["fingerprint"] = fingerprint(rt.sim)
    return out


def _flat(operands):
    """A scalar-loop response ``((tag, i), *words)`` in the list layout."""
    return (*operands[0], *operands[1:])


@settings(max_examples=60, deadline=None)
@given(
    nwords=st.integers(0, 40),
    offset=st.integers(BLOCK_WORDS - 40, BLOCK_WORDS + 8),
    work=st.sampled_from([0, 1, 2]),
    tagged=st.booleans(),
    nr_nodes=st.sampled_from([1, 2]),
    src_node=st.sampled_from([0, 1]),
    shards=st.sampled_from([1, 2]),
    delayed=st.booleans(),
)
def test_list_read_equals_the_scalar_loop(
    nwords, offset, work, tagged, nr_nodes, src_node, shards, delayed
):
    args = (nwords, offset, work, tagged, nr_nodes, src_node, shards, delayed)
    vector = _read_list(True, *args)
    scalar = _read_list(False, *args)
    if tagged:
        for key in ("pushed", "handled"):
            scalar[key] = [(t, _flat(ops)) for t, ops in scalar[key]]
    assert vector == scalar
    assert vector["count"] == -(-nwords // MAX_DRAM_READ_WORDS)
    assert len(vector["handled"]) == vector["count"]


def test_list_read_reaches_both_memory_nodes():
    """The fixed example the property relies on: a list straddling a
    swizzle block is served by both nodes, each chunk by its own first
    word's node, and the chunks arrive in word order of their offsets."""
    out = _read_list(True, 20, BLOCK_WORDS - 12, 1, True, 2, 0, 1, False)
    assert out["count"] == 3
    assert out["fingerprint"]["model"]["dram_remote_accesses"] == 1
    assert sorted(ops[1] for _t, ops in out["handled"]) == [0, 8, 16]
    chunks = sorted(ops for _t, ops in out["handled"])
    words = [w for ops in chunks for w in ops[2:]]
    first = 1000 + BLOCK_WORDS - 12
    assert words == list(range(first, first + 20))


class TestListReadErrors:
    def _run(self, body):
        rt = runtime()
        reg = rt.dram_malloc(8 * 16, name="arr")
        seen = {}

        @rt.register
        class T(UDThread):
            @event
            def go(self, ctx):
                before = ctx.cycles
                try:
                    body(ctx, reg)
                finally:
                    seen["charged"] = ctx.cycles - before
                ctx.yield_terminate()

        rt.start(0, "T::go")
        return rt, seen

    def test_negative_length_rejected(self):
        rt, seen = self._run(
            lambda ctx, reg: ctx.send_dram_reads(reg.addr(0), -1, "go")
        )
        with pytest.raises(UDWeaveError, match="-1 words"):
            rt.run()
        assert seen["charged"] == 0

    def test_overrun_raises_before_any_chunk_is_charged(self):
        rt, seen = self._run(
            lambda ctx, reg: ctx.send_dram_reads(reg.addr(4), 13, "go")
        )
        with pytest.raises(MemoryError_, match="overruns"):
            rt.run()
        assert seen["charged"] == 0
        assert rt.sim.stats.dram_reads == 0

    def test_empty_list_issues_nothing(self):
        rt, seen = self._run(
            lambda ctx, reg: seen.setdefault(
                "count", ctx.send_dram_reads(reg.addr(0), 0, "go")
            )
        )
        rt.run()
        assert (seen["count"], seen["charged"]) == (0, 0)
        assert rt.sim.stats.dram_reads == 0


class TestWork:
    @pytest.mark.parametrize("bad", [-1, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("site", ["work", "send_dram_reads"])
    def test_non_finite_or_negative_work_rejected(self, site, bad):
        rt = runtime()
        reg = rt.dram_malloc(8 * 16, name="arr")

        @rt.register
        class T(UDThread):
            @event
            def go(self, ctx):
                if site == "work":
                    ctx.work(bad)
                else:
                    ctx.send_dram_reads(reg.addr(0), 12, "go", work=bad)
                ctx.yield_terminate()

        rt.start(0, "T::go")
        with pytest.raises(UDWeaveError, match="finite"):
            rt.run()
        assert math.isfinite(rt.sim.stats.final_tick)


class TestSendDelay:
    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("dest", ["local", "remote"])
    def test_non_finite_or_negative_delay_rejected(self, dest, bad):
        """Rejected at the send, as ``work`` is.  A NaN ``t_issue``
        compares False against a channel's ``free_at``, so a remote send
        would otherwise be injected at ``free_at`` and run before the
        event that sent it ended."""
        rt = runtime()
        target = 1 if dest == "local" else rt.config.lanes_per_node

        @rt.register
        class T(UDThread):
            @event
            def go(self, ctx):
                ctx.send_event(ctx.evw_new(target, "T::sink"), delay=bad)
                ctx.yield_terminate()

            @event
            def sink(self, ctx):
                ctx.yield_terminate()

        rt.start(0, "T::go")
        with pytest.raises(UDWeaveError, match="finite"):
            rt.run()
        assert rt.sim.stats.messages_sent == 0


class TestScratchpad:
    def test_sp_rw(self):
        rt = runtime()
        got = []

        @rt.register
        class T(UDThread):
            @event
            def go(self, ctx):
                ctx.sp_write("k", 5)
                got.append(ctx.sp_read("k"))
                got.append(ctx.sp_read("missing", "default"))
                ctx.yield_terminate()

        rt.start(0, "T::go")
        rt.run()
        assert got == [5, "default"]

    def test_scratchpad_is_lane_private(self):
        rt = runtime()
        got = []

        @rt.register
        class T(UDThread):
            @event
            def go(self, ctx):
                ctx.sp_write("k", "lane0")
                ctx.spawn(1, "T::peek")
                ctx.yield_terminate()

            @event
            def peek(self, ctx):
                got.append(ctx.sp_read("k"))
                ctx.yield_terminate()

        rt.start(0, "T::go")
        rt.run()
        assert got == [None]


class TestWriteOnceFlag:
    def test_sp_once_sets_then_hits_with_read_write_costs(self):
        """Miss = the ``sp_read`` + ``sp_write`` pair it replaces (two
        accesses, flag stored as ``True``); hit = the read alone."""
        rt = runtime()
        got = []

        @rt.register
        class T(UDThread):
            @event
            def go(self, ctx):
                sp = ctx.costs.scratchpad_access
                for _ in range(2):
                    before = ctx.cycles
                    hit = ctx.sp_once(("flag", 7))
                    got.append((hit, (ctx.cycles - before) / sp))
                got.append(ctx.sp_read(("flag", 7)))
                ctx.yield_terminate()

        rt.start(0, "T::go")
        rt.run()
        assert got == [(False, 2.0), (True, 1.0), True]

    def test_sp_once_honours_a_host_seeded_flag(self):
        rt = runtime()
        rt.sim.lane(0).scratchpad[("flag", 1)] = True
        got = []

        @rt.register
        class T(UDThread):
            @event
            def go(self, ctx):
                got.append(ctx.sp_once(("flag", 1)))
                ctx.yield_terminate()

        rt.start(0, "T::go")
        rt.run()
        assert got == [True]


class TestYields:
    def test_double_yield_rejected(self):
        rt = runtime()

        @rt.register
        class T(UDThread):
            @event
            def go(self, ctx):
                ctx.yield_()
                ctx.yield_()

        rt.start(0, "T::go")
        with pytest.raises(UDWeaveError, match="already ended"):
            rt.run()

    def test_yield_then_terminate_rejected(self):
        rt = runtime()

        @rt.register
        class T(UDThread):
            @event
            def go(self, ctx):
                ctx.yield_()
                ctx.yield_terminate()

        rt.start(0, "T::go")
        with pytest.raises(UDWeaveError):
            rt.run()

    def test_negative_delay_rejected(self):
        rt = runtime()

        @rt.register
        class T(UDThread):
            @event
            def go(self, ctx):
                ctx.send_event(ctx.runtime.host_evw("x"), delay=-5)

        rt.start(0, "T::go")
        with pytest.raises(UDWeaveError):
            rt.run()

    def test_delayed_send_arrives_later(self):
        rt = runtime()

        @rt.register
        class T(UDThread):
            @event
            def go(self, ctx):
                ctx.send_event(ctx.runtime.host_evw("late"), delay=5000)
                ctx.yield_terminate()

        rt.start(0, "T::go")
        rt.run()
        t, _ = rt.sim.host_inbox[0]
        assert t >= 5000


class TestContinuations:
    def test_send_reply_to_ignored_continuation_is_noop(self):
        rt = runtime()

        @rt.register
        class T(UDThread):
            @event
            def go(self, ctx):  # started with no continuation
                ctx.send_reply(1, 2, 3)
                ctx.send_event(ctx.runtime.host_evw("ok"))
                ctx.yield_terminate()

        rt.start(0, "T::go")
        stats = rt.run()
        assert rt.host_messages("ok")
        # only the host message was sent
        assert stats.messages_sent == 1

    def test_listing2_call_return_composition(self):
        """The paper's Listing 2: e1 -> e2 (new thread, next lane) -> e3."""
        rt = runtime()
        trace = []

        @rt.register
        class TCallReturn(UDThread):
            @event
            def e1(self, ctx):
                trace.append("e1")
                evw = ctx.evw_new(ctx.network_id + 1, "TCallReturn::e2")
                ctw = ctx.self_evw("e3")
                ctx.send_event(evw, 0, 1, cont=ctw)
                ctx.yield_()

            @event
            def e2(self, ctx, d0, d1):
                trace.append(("e2", d0, d1))
                ctx.send_reply()
                ctx.yield_terminate()

            @event
            def e3(self, ctx):
                trace.append("e3")
                ctx.send_event(ctx.runtime.host_evw("done"))
                ctx.yield_terminate()

        rt.start(0, "TCallReturn::e1")
        rt.run()
        assert trace == ["e1", ("e2", 0, 1), "e3"]

    def test_cevnt_addresses_current_thread(self):
        rt = runtime()
        seen = []

        @rt.register
        class T(UDThread):
            def __init__(self):
                self.marker = None

            @event
            def go(self, ctx):
                self.marker = "set"
                from repro.udweave import eventword

                evw = eventword.with_label(
                    ctx.cevnt, ctx.runtime.label_id("T::again")
                )
                ctx.send_event(evw)
                ctx.yield_()

            @event
            def again(self, ctx):
                seen.append(self.marker)
                ctx.yield_terminate()

        rt.start(0, "T::go")
        rt.run()
        assert seen == ["set"]


class TestPooledScratchpad:
    """§2.1.1: scratchpad pooling within an accelerator."""

    def test_siblings_share_through_the_pool(self):
        rt = runtime(nodes=1)
        got = []

        @rt.register
        class T(UDThread):
            @event
            def writer(self, ctx):
                # lane 0 writes into lane 1's scratchpad
                ctx.sp_write_pooled(1, "shared", 42)
                ctx.spawn(1, "T::reader")
                ctx.yield_terminate()

            @event
            def reader(self, ctx):
                got.append(ctx.sp_read("shared"))
                got.append(ctx.sp_read_pooled(0, "missing", "dflt"))
                ctx.yield_terminate()

        rt.start(0, "T::writer")
        rt.run()
        assert got == [42, "dflt"]

    def test_pooled_access_costs_more_than_private(self):
        rt = runtime(nodes=1)
        deltas = {}

        @rt.register
        class T(UDThread):
            @event
            def go(self, ctx):
                before = ctx.cycles
                ctx.sp_write("k", 1)
                deltas["private"] = ctx.cycles - before
                before = ctx.cycles
                ctx.sp_write_pooled(1, "k", 1)
                deltas["pooled"] = ctx.cycles - before
                ctx.yield_terminate()

        rt.start(0, "T::go")
        rt.run()
        assert deltas["pooled"] > deltas["private"]

    def test_pool_bounded_to_accelerator(self):
        rt = runtime(nodes=1)

        @rt.register
        class T(UDThread):
            @event
            def go(self, ctx):
                ctx.sp_read_pooled(ctx.config.lanes_per_accel, "k")

        rt.start(0, "T::go")
        with pytest.raises(UDWeaveError, match="outside"):
            rt.run()
