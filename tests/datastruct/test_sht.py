"""Scalable hash table: semantics vs a dict model, capacity, distribution."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datastruct import ScalableHashTable, SHTError
from repro.kvmsr import stable_hash
from repro.machine import bench_machine
from repro.udweave import UDThread, UpDownRuntime, event


def drive(rt, body, done_check=True):
    """Run ``body(ctx)`` in one device event."""

    @rt.register
    class _D(UDThread):
        @event
        def go(self, ctx):
            body(ctx)
            ctx.send_event(ctx.runtime.host_evw("drv_done"))
            ctx.yield_terminate()

    rt.start(0, "_D::go")
    rt.run(max_events=3_000_000)
    if done_check:
        assert rt.host_messages("drv_done")


class TestBasicOps:
    def test_insert_lookup_remove(self):
        rt = UpDownRuntime(bench_machine(nodes=2))
        sht = ScalableHashTable(rt, "t", value_words=2)
        replies = []

        @rt.register
        class D(UDThread):
            @event
            def go(self, ctx):
                sht.insert_from(ctx, 5, (50, 51), cont=ctx.self_evw("step2"))
                ctx.yield_()

            @event
            def step2(self, ctx, ok):
                sht.lookup_from(ctx, 5, ctx.self_evw("step3"))
                ctx.yield_()

            @event
            def step3(self, ctx, found, *vals):
                replies.append((found, vals))
                sht.remove_from(ctx, 5, cont=ctx.self_evw("step4"))
                ctx.yield_()

            @event
            def step4(self, ctx, removed):
                replies.append(removed)
                sht.lookup_from(ctx, 5, ctx.self_evw("step5"))
                ctx.yield_()

            @event
            def step5(self, ctx, found, *vals):
                replies.append(found)
                ctx.yield_terminate()

        rt.start(0, "D::go")
        rt.run(max_events=500_000)
        assert replies == [(1, (50, 51)), 1, 0]

    def test_duplicate_insert_raises(self):
        rt = UpDownRuntime(bench_machine(nodes=1))
        sht = ScalableHashTable(rt, "t")

        def body(ctx):
            sht.insert_from(ctx, 1, (1,))
            sht.insert_from(ctx, 1, (2,))

        with pytest.raises(SHTError, match="duplicate"):
            drive(rt, body, done_check=False)

    def test_update_upserts(self):
        rt = UpDownRuntime(bench_machine(nodes=1))
        sht = ScalableHashTable(rt, "t")
        drive(rt, lambda ctx: (
            sht.update_from(ctx, 1, (10,)),
            sht.update_from(ctx, 1, (20,)),
        ))
        assert sht.snapshot() == {1: (20,)}

    def test_value_width_enforced(self):
        rt = UpDownRuntime(bench_machine(nodes=1))
        sht = ScalableHashTable(rt, "t", value_words=1)
        with pytest.raises(SHTError, match="exceeds"):
            drive(rt, lambda ctx: sht.insert_from(ctx, 1, (1, 2)),
                  done_check=False)

    def test_lookup_with_tag(self):
        rt = UpDownRuntime(bench_machine(nodes=1))
        sht = ScalableHashTable(rt, "t")
        got = []

        @rt.register
        class D(UDThread):
            @event
            def go(self, ctx):
                sht.update_from(ctx, 3, (33,))
                sht.lookup_from(ctx, 3, ctx.self_evw("r"), tag="A")
                sht.lookup_from(ctx, 99, ctx.self_evw("r"), tag="B")
                ctx.yield_()

            @event
            def r(self, ctx, tag, found, *vals):
                got.append((tag, found, vals))
                if len(got) == 2:
                    ctx.yield_terminate()
                else:
                    ctx.yield_()

        rt.start(0, "D::go")
        rt.run(max_events=200_000)
        assert sorted(got) == [("A", 1, (33,)), ("B", 0, ())]


class TestCapacityAndNaming:
    def test_per_lane_capacity_enforced(self):
        rt = UpDownRuntime(
            bench_machine(nodes=1, accels_per_node=1, lanes_per_accel=1)
        )
        sht = ScalableHashTable(
            rt, "tiny", buckets_per_lane=1, entries_per_bucket=2
        )

        def body(ctx):
            for k in range(3):  # one lane, capacity 2
                sht.insert_from(ctx, k, (k,))

        with pytest.raises(SHTError, match="full"):
            drive(rt, body, done_check=False)

    def test_duplicate_table_name_rejected(self):
        rt = UpDownRuntime(bench_machine(nodes=1))
        ScalableHashTable(rt, "t")
        with pytest.raises(SHTError):
            ScalableHashTable(rt, "t")

    def test_unknown_table_rejected(self):
        rt = UpDownRuntime(bench_machine(nodes=1))
        with pytest.raises(SHTError):
            ScalableHashTable.named(rt, "missing")

    def test_keys_spread_over_lanes(self):
        rt = UpDownRuntime(bench_machine(nodes=2))
        sht = ScalableHashTable(rt, "t")
        owners = {sht.owner_lane(k) for k in range(500)}
        assert len(owners) > rt.config.total_lanes // 2


_KEYS = st.recursive(
    st.integers(-(2**70), 2**70) | st.text(max_size=8),
    lambda inner: st.tuples(inner) | st.tuples(inner, inner),
    max_leaves=6,
)


class TestPlacement:
    """``owner_lane`` folds the ``("sht", name)`` prefix once per table
    and memoizes per key; the lane must stay the plain tuple hash."""

    @settings(max_examples=60, deadline=None)
    @given(keys=st.lists(_KEYS, min_size=1, max_size=8))
    def test_owner_lane_is_the_tuple_hash(self, keys):
        rt = UpDownRuntime(bench_machine(nodes=8))
        sht = ScalableHashTable(rt, "place", first_lane=3, num_lanes=11)
        for _pass in ("miss", "hit"):
            for k in keys:
                assert sht.owner_lane(k) == (
                    3 + stable_hash(("sht", "place", k)) % 11
                )

    def test_golden_owner_lanes(self):
        # computed with the unfolded, unmemoized hash: placement must
        # not move silently
        rt = UpDownRuntime(bench_machine(nodes=8))
        whole = ScalableHashTable(rt, "t")
        part = ScalableHashTable(rt, "pga_v", first_lane=3, num_lanes=5)
        keys = [0, 1, 42, -7, 2**70, "v", "alpha", (3, 4), (1, ("x", 2))]
        assert [whole.owner_lane(k) for k in keys] == [
            10, 12, 7, 10, 10, 10, 14, 9, 8
        ]
        assert [part.owner_lane(k) for k in keys] == [
            5, 3, 7, 6, 5, 5, 7, 4, 5
        ]

    def test_unhashable_key_type_still_raises(self):
        rt = UpDownRuntime(bench_machine(nodes=2))
        sht = ScalableHashTable(rt, "t")
        sht.owner_lane(2)
        for _attempt in range(2):  # a failed placement is not memoized
            with pytest.raises(TypeError):
                sht.owner_lane(1.5)


class TestDictEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["update", "remove"]),
                st.integers(0, 15),
                st.integers(0, 1000),
            ),
            max_size=40,
        )
    )
    def test_matches_dict_model(self, ops):
        """Any sequence of upserts/removes leaves the SHT equal to a dict."""
        rt = UpDownRuntime(bench_machine(nodes=2))
        sht = ScalableHashTable(rt, "model")
        model = {}

        def body(ctx):
            for op, k, v in ops:
                if op == "update":
                    sht.update_from(ctx, k, (v,))
                    model[k] = (v,)
                else:
                    sht.remove_from(ctx, k)
                    model.pop(k, None)

        # ops within one event are issued concurrently; serialize by key
        # ownership: all ops on key k hit the same lane in issue order,
        # and cross-lane ops are independent - so the dict model holds.
        drive(rt, body)
        assert sht.snapshot() == model
