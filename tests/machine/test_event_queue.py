"""The two-tier event queue and collector-quiet drains.

``Simulator._push`` / the ``_drain`` pop sites split the queue into a
near heap and far time buckets; pop order must be exactly the order one
``heapq`` over ``(time, dest, seq)`` would give, whatever the mix of
ties, bucket edges, bounded drains and handler-made pushes.  The
reference below is that one heap.
"""

import gc
import heapq
import math
import time
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.machine import (
    MessageRecord,
    SimulationError,
    Simulator,
    bench_machine,
)
from repro.machine.events import NEW_THREAD
from repro.machine.simulator import (
    ACTOR_SEQ_BITS,
    BUCKET_CYCLES as W,
    QuiescenceStall,
)

LANES = 8  # destinations the generated streams address


def _machine():
    return bench_machine(nodes=1, accels_per_node=1, lanes_per_accel=LANES)


class Harness:
    """A simulator whose handlers push what the stream tells them to."""

    def __init__(self):
        self.order = []
        self.children = {}  # record id -> [(delay, dest, child id)]
        self.sim = Simulator(_machine(), dispatcher=self._dispatch)

    def _record(self, dest, rid):
        return MessageRecord(dest, NEW_THREAD, f"r{rid}", (rid,))

    def _dispatch(self, sim, lane, record, start):
        rid = record.operands[0]
        self.order.append(rid)
        for delay, dest, child in self.children.get(rid, ()):
            sim._push(
                sim.now + delay, self._record(dest, child),
                1 + lane.network_id,
            )
        return 0.0

    def inject(self, t, dest, rid):
        self.sim.inject(self._record(dest, rid), t)

    def check_invariant(self):
        sim = self.sim
        queued = sim._queued()
        assert bool(queued) == bool(sim._heap)
        if queued:
            assert sim._heap[0] == min(queued, key=lambda e: e[:3])
        assert all(e[0] < sim._near_end for e in sim._heap[1:])
        assert sorted(sim._far) == sorted(sim._far_ids)
        for bucket_id, bucket in sim._far.items():
            assert bucket and bucket_id * W >= sim._near_end
            assert all(e[0] // W == bucket_id for e in bucket)


class Reference:
    """The same stream through one plain ``heapq``."""

    def __init__(self, children):
        self.order = []
        self.children = children
        self.heap = []
        self.counts = defaultdict(int)

    def push(self, t, dest, rid, actor):
        count = self.counts[actor]
        self.counts[actor] += 1
        seq = (actor << ACTOR_SEQ_BITS) | count
        heapq.heappush(self.heap, (t, dest, seq, rid))

    def run(self, until=math.inf):
        heap = self.heap
        while heap and heap[0][0] < until:
            t, dest, _seq, rid = heapq.heappop(heap)
            self.order.append(rid)
            for delay, cdest, child in self.children.get(rid, ()):
                self.push(t + delay, cdest, child, 1 + dest)


#: times that stress the tiering: ties, exact bucket edges ``k·W``, one
#: ulp below an edge, negatives (floor, not truncation), and a scatter
_edges = st.integers(-2, 40).map(lambda k: k * W)
times = st.one_of(
    st.sampled_from([0.0, 1.0, 5.0, W - 1.0, W, 3 * W]),
    _edges,
    _edges.map(lambda e: math.nextafter(e, -math.inf)),
    st.floats(-2 * W, 40 * W, allow_nan=False),
)
delays = st.one_of(
    st.sampled_from([0.0, 1.0, W]),
    st.floats(0.0, 6 * W, allow_nan=False),
)
dests = st.integers(0, LANES - 1)
ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("inject"), times, dests,
            st.lists(st.tuples(delays, dests), max_size=3),
        ),
        st.tuples(st.just("until"), times),
        st.tuples(st.just("run")),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(ops=ops)
def test_pop_order_is_the_single_heap_order(ops):
    h = Harness()
    ref = Reference(h.children)
    next_id = 0
    for op in ops:
        if op[0] == "inject":
            _, t, dest, kids = op
            rid, next_id = next_id, next_id + 1
            h.children[rid] = [
                (delay, cdest, next_id + i)
                for i, (delay, cdest) in enumerate(kids)
            ]
            next_id += len(kids)
            h.inject(t, dest, rid)
            ref.push(t, dest, rid, 0)
        elif op[0] == "until":
            h.sim.run(until=op[1])
            ref.run(op[1])
        else:
            h.sim.run()
            ref.run()
        h.check_invariant()
        assert h.order == ref.order
    h.sim.run()
    ref.run()
    h.check_invariant()
    assert h.order == ref.order
    assert not h.sim._heap and not h.sim._far and h.sim.stats.quiesced


class TestTiers:
    def test_far_pushes_do_not_touch_the_heap(self):
        h = Harness()
        h.inject(10.0, 0, 0)
        for i in range(1, 6):
            h.inject(i * W + 10.0, 0, i)
        assert len(h.sim._heap) == 1 and len(h.sim._far) == 5
        h.check_invariant()

    def test_push_below_the_horizon_while_far_is_populated(self):
        h = Harness()
        h.inject(10.0, 0, 0)
        h.inject(5 * W, 0, 1)
        h.inject(20.0, 1, 2)  # near, although later buckets exist
        h.inject(5.0, 2, 3)  # earlier than everything queued
        h.check_invariant()
        h.sim.run()
        assert h.order == [3, 0, 2, 1]

    def test_until_cuts_mid_bucket_and_reenters(self):
        h = Harness()
        for i, t in enumerate((2 * W + 1, 2 * W + 5, 2 * W + 9, 7 * W)):
            h.inject(float(t), 0, i)
        h.sim.run(until=2 * W + 5.0)  # exclusive: stops inside bucket 2
        assert h.order == [0]
        h.check_invariant()
        assert len(h.sim._queued()) == 3
        h.inject(2 * W + 3.0, 1, 9)  # behind the cut, still next
        h.sim.run(until=2 * W + 9.0)
        assert h.order == [0, 9, 1]
        h.sim.run()
        assert h.order == [0, 9, 1, 2, 3]

    def test_drain_to_empty_then_reinject(self):
        h = Harness()
        h.inject(3 * W, 0, 0)
        h.sim.run()
        assert h.sim.stats.quiesced and not h.sim._heap
        h.inject(10.0, 0, 1)  # before the old horizon
        h.inject(9 * W, 0, 2)  # beyond it
        h.check_invariant()
        h.sim.run()
        assert h.order == [0, 1, 2] and h.sim.stats.quiesced

    def test_sparse_horizon_drains_in_linear_time(self):
        # one entry per bucket, 50k buckets: a refill that scanned the
        # live buckets for their minimum would make this quadratic
        # (~10^9 comparisons); the id heap keeps it a fraction of a second
        n = 50_000
        sim = Simulator(_machine(), dispatcher=lambda *a: 0.0)
        began = time.process_time()
        for i in range(n):
            sim.inject(MessageRecord(0, NEW_THREAD, "tick"), t=i * 2 * W)
        assert len(sim._far) == n - 1
        sim.run()
        assert time.process_time() - began < 10.0
        assert sim.stats.events_executed == n and sim.stats.quiesced


class TestNonFiniteTimes:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_inject_rejects_it_naming_the_label(self, bad):
        sim = Simulator(_machine(), dispatcher=lambda *a: 0.0)
        with pytest.raises(SimulationError, match="'boom'.*finite"):
            sim.inject(MessageRecord(0, NEW_THREAD, "boom"), t=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_handler_computed_time_is_rejected_mid_drain(self, bad):
        def dispatch(sim, lane, record, start):
            if record.label == "seed":
                sim._push(
                    sim.now + bad, MessageRecord(0, NEW_THREAD, "late"), 1
                )
            return 0.0

        sim = Simulator(_machine(), dispatcher=dispatch)
        sim.inject(MessageRecord(0, NEW_THREAD, "seed"), t=1.0)
        sim.inject(MessageRecord(0, NEW_THREAD, "other"), t=9 * W)
        with pytest.raises(SimulationError, match="'late'"):
            sim.run()


MODES = [{}, dict(shards=2)]
MODE_IDS = ["sequential", "shards2"]


class TestCollectorQuietDrains:
    """Full collections are held off inside ``run()`` only."""

    @pytest.fixture(autouse=True)
    def collector_settings_survive(self):
        before = (gc.get_threshold(), gc.isenabled())
        yield
        assert (gc.get_threshold(), gc.isenabled()) == before

    def _sim(self, dispatch, **kw):
        sim = Simulator(bench_machine(nodes=2), dispatcher=dispatch, **kw)
        for i in range(4):
            sim.inject(MessageRecord(0, NEW_THREAD, f"e{i}"), t=10.0 * i)
        return sim

    @pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
    def test_threshold_is_restored_on_normal_return(self, mode):
        before, enabled = gc.get_threshold(), gc.isenabled()
        seen = []

        def dispatch(sim, lane, record, start):
            seen.append((gc.get_threshold(), gc.isenabled()))
            return 1.0

        sim = self._sim(dispatch, **mode)
        sim.run()
        assert sim.stats.events_executed == 4
        assert len(seen) == 4
        for inside, on in seen:
            assert inside[:2] == before[:2] and inside[2] > before[2]
            assert on == enabled

    @pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
    def test_threshold_is_restored_on_max_events_abort(self, mode):
        sim = self._sim(lambda *a: 1.0, **mode)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=2)

    @pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
    def test_threshold_is_restored_when_a_handler_raises(self, mode):
        def dispatch(sim, lane, record, start):
            raise ZeroDivisionError("handler bug")

        sim = self._sim(dispatch, **mode)
        with pytest.raises(ZeroDivisionError):
            sim.run()

    @pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
    def test_threshold_is_restored_on_quiescence_stall(self, mode):
        def dispatch(sim, lane, record, start):
            # a poll chain that never makes progress
            sim.send(
                MessageRecord(0, NEW_THREAD, "poll", src_network_id=0),
                start + 50.0, src_node=0,
            )
            return 1.0

        sim = Simulator(
            bench_machine(nodes=2), dispatcher=dispatch,
            watchdog_cycles=500.0, **mode,
        )
        sim.mark_idle_labels({"poll"})
        sim.inject(MessageRecord(0, NEW_THREAD, "poll"), t=0.0)
        with pytest.raises(QuiescenceStall):
            sim.run(max_events=100_000)
