"""Shared-memory boundary transport: batch frames, rings, spill, adaptivity.

Covers the machine-layer mechanics of the parallel boundary fabric —
the batched frame (flat rows of every boundary record type and value
shape, pickled once per frame and rebuilt type-exactly; splitting at
the ring-derived bound), the fixed-capacity shared-memory rings
(wraparound, overflow spill), and the adaptive-lookahead window
widening — plus end-to-end parity of the paths only real runs exercise
(spill relay, fault-delayed records across forked workers).  Full
application parity lives in ``tests/integration/test_parallel_parity.py``.
"""

import multiprocessing
import pickle

import pytest

from repro.machine import (
    MessageRecord,
    SimulationError,
    Simulator,
    bench_machine,
)
from repro.machine.events import (
    NEW_THREAD,
    DramArrival,
    flatten_boundary_entry,
)
from repro.machine.parallel import pack_frames, unpack_frame

ROOMY = 1 << 20


def pack(entries, wlogs=(), step=0, bound=ROOMY):
    """The frames one flush of ``entries`` + ``wlogs`` produces."""
    rows = [flatten_boundary_entry(e) for e in entries] + list(wlogs)
    return list(pack_frames(step, rows, bound))


def roundtrip(entry):
    (frame,) = pack([entry])
    _step, (decoded,), wlogs = unpack_frame(frame)
    assert wlogs == []
    return decoded


class TestCodecRoundTrip:
    """Every boundary record type and operand value shape survives the
    batch frame (flat rows, one pickle) bit-for-bit."""

    def test_message_record_all_value_shapes(self):
        rec = MessageRecord(
            7,
            NEW_THREAD,
            "update",
            operands=(
                None,
                True,
                False,
                0,
                -1,
                2**40,
                -(2**70),  # beyond i64
                3.25,
                float("inf"),
                "text",
                b"\x00raw\xff",
                (1, ("nested", 2.5), ()),
            ),
            continuation=123456,
            src_network_id=3,
            kind="msg",
            label_id=5,
        )
        t, dest, seq, out = roundtrip((100.5, 7, 42, rec))
        assert (t, dest, seq) == (100.5, 7, 42)
        for slot in MessageRecord.__slots__:
            assert getattr(out, slot) == getattr(rec, slot), slot
        # value round-trip is type-exact, not merely equal (True != 1)
        for a, b in zip(out.operands, rec.operands):
            assert type(a) is type(b)

    def test_huge_sequence_numbers(self):
        rec = MessageRecord(0, NEW_THREAD, "x")
        _t, _d, seq, _rec = roundtrip((1.0, 0, (1 << 44) * 12345 + 9, rec))
        assert seq == (1 << 44) * 12345 + 9

    def test_numpy_scalars_round_trip_type_exact(self):
        np = pytest.importorskip("numpy")
        rec = MessageRecord(
            1, NEW_THREAD, "np", operands=(np.int64(5), np.float64(0.5))
        )
        out = roundtrip((1.0, 1, 2, rec))[3]
        assert type(out.operands[0]) is np.int64
        assert type(out.operands[1]) is np.float64
        assert out.operands == rec.operands

    def test_fault_delayed_records_keep_their_rdt_tags(self):
        # reliable-transport tags: data / ack / retransmit-timer
        for rdt in (("d", 3, 7), ("a", 2, 9), ("t", 5, 1, 2)):
            rec = MessageRecord(2, NEW_THREAD, "h", rdt=rdt)
            out = roundtrip((5.0, 2, 1, rec))[3]
            assert out.rdt == rdt

    def test_unresolved_label_ships_the_string(self):
        rec = MessageRecord(0, NEW_THREAD, "not-yet-interned")
        out = roundtrip((1.0, 0, 1, rec))[3]
        assert out.label == "not-yet-interned"
        assert out.label_id == rec.label_id == -1

    def test_dram_arrival_with_and_without_response(self):
        # the response's network_id (requester lane) differs from the
        # entry dest (virtual memory-node id) — both must survive
        resp = MessageRecord(
            3, NEW_THREAD, "dram_done", operands=(8,), kind="dram",
            label_id=6,
        )
        rec = DramArrival(260, resp, 0, 2, 64, 128, 72)
        t, dest, seq, out = roundtrip((900.0, 260, 5, rec))
        assert (t, dest, seq) == (900.0, 260, 5)
        assert out.network_id == 260
        for slot in MessageRecord.__slots__:
            assert getattr(out.response, slot) == getattr(resp, slot), slot
        assert (out.src_node, out.memory_node) == (0, 2)
        assert (out.nbytes, out.local_offset, out.back_bytes) == (64, 128, 72)
        bare = DramArrival(261, None, 1, 3, 32, 0, 40)
        out = roundtrip((901.0, 261, 6, bare))[3]
        assert out.response is None
        assert (out.network_id, out.src_node, out.memory_node) == (261, 1, 3)

    def test_foreign_record_type_rejected_by_name(self):
        class Stowaway:
            pass

        with pytest.raises(TypeError, match="Stowaway"):
            flatten_boundary_entry((1.0, 0, 1, Stowaway()))

    def test_unknown_record_tag_rejected(self):
        # arity is the row's only type tag: 12 / 8 / 17 / 2 exist
        row = flatten_boundary_entry(
            (1.0, 0, 1, MessageRecord(0, NEW_THREAD, "x"))
        )
        frame = pickle.dumps((0, [row[:-1]]), protocol=5)
        with pytest.raises(ValueError, match="corrupt boundary frame"):
            unpack_frame(frame)

    def test_wlog_frame_carries_step_tag(self):
        entry = (1.0, 0, 1, MessageRecord(0, NEW_THREAD, "x"))
        (frame,) = pack([entry], wlogs=[(0x4000, [1.0, -7, 2**66])], step=3)
        step, entries, wlogs = unpack_frame(frame)
        assert step == 3
        assert [e[2] for e in entries] == [1]
        assert wlogs == [(0x4000, [1.0, -7, 2**66])]
        assert [type(v) for v in wlogs[0][1]] == [float, int, int]

    def test_batch_is_one_frame_in_producer_order(self):
        entries = [
            (float(i), 0, i, MessageRecord(0, NEW_THREAD, "m", (i,), label_id=1))
            for i in range(500)
        ]
        (frame,) = pack(entries)
        _step, out, _wlogs = unpack_frame(frame)
        assert [e[:3] for e in out] == [e[:3] for e in entries]
        assert [e[3] for e in out] == [e[3] for e in entries]
        # flat rows with a memoized label, not pickled objects
        assert len(frame) < 40 * len(entries)

    def test_oversize_batch_splits_at_the_bound(self):
        entries = [
            (float(i), 0, i, MessageRecord(0, NEW_THREAD, "m", (i,), label_id=1))
            for i in range(300)
        ]
        wlogs = [(0x100 + i, [i]) for i in range(20)]
        frames = pack(entries, wlogs, step=7, bound=256)
        assert len(frames) > 10
        assert all(len(f) <= 256 for f in frames)
        seqs, writes = [], []
        for frame in frames:
            step, out, w = unpack_frame(frame)
            assert step == 7  # every piece repeats the step tag
            seqs += [e[2] for e in out]
            writes += w
        assert seqs == list(range(300))
        assert writes == wlogs

    def test_a_lone_record_is_never_cut(self):
        big = MessageRecord(0, NEW_THREAD, "m", (b"x" * 1000,))
        (frame,) = pack([(1.0, 0, 1, big)], bound=64)
        assert len(frame) > 1000


def make_ports(capacity, shards=2):
    from repro.machine.parallel import _RingHub, _WorkerPort

    hub = _RingHub(shards, capacity, multiprocessing.get_context("fork"))
    return hub, [_WorkerPort(hub, s) for s in range(shards)]


def entry(i):
    return (
        float(i),
        0,
        i,
        MessageRecord(0, NEW_THREAD, "m", operands=(i,), label_id=1),
    )


def flush(port, target, entries, wlogs=(), step=0, may_spill=False):
    """One peer's share of a sub-step flush; returns spilled frames."""
    port.step = step
    rows = [flatten_boundary_entry(e) for e in entries] + list(wlogs)
    return port.write_batch(target, rows, lambda: None, may_spill)


class TestRingTransport:
    """Single-process exercise of the shared-memory rings: both ports
    live in this test process, so wraparound and cursor arithmetic are
    checked without scheduling noise."""

    def test_wraparound_at_tiny_capacity(self):
        # capacity far below the total traffic: cursors lap the ring
        # dozens of times and frames split across the wrap point
        hub, (p0, p1) = make_ports(capacity=128)
        try:
            got = []
            for i in range(100):
                assert flush(p0, 1, [entry(i)]) == []
                p1.drain(got.append)
            assert p0.wr[1] > 128 * 10  # really wrapped, repeatedly
            assert p0.frames_out == 100
            assert [e[2] for e in got] == list(range(100))
            assert [e[3].operands for e in got] == [(i,) for i in range(100)]
        finally:
            hub.release()

    def test_full_ring_spills_only_when_allowed(self):
        hub, (p0, p1) = make_ports(capacity=128)
        try:
            (frame,) = pack([entry(0)])
            while p0.try_write(1, frame, lambda: None, True):
                pass  # fill the ring to capacity
            # may_spill=True reports the overflow instead of blocking
            assert p0.try_write(1, frame, lambda: None, True) is False
            # after the consumer drains, the same frame fits again
            got = []
            p1.drain(got.append)
            assert got
            assert p0.try_write(1, frame, lambda: None, True) is True
        finally:
            hub.release()

    def test_oversized_frame_without_spill_is_a_hard_error(self):
        # one record whose frame exceeds the whole ring: pack_frames
        # cannot cut it, so the ring write decides
        hub, (p0, _p1) = make_ports(capacity=64)
        try:
            huge = (1.0, 0, 1, MessageRecord(0, NEW_THREAD, "m", (b"x" * 200,)))
            assert len(flush(p0, 1, [huge], may_spill=True)) == 1
            with pytest.raises(SimulationError, match="parallel_ring_kib"):
                flush(p0, 1, [huge], may_spill=False)
        finally:
            hub.release()

    def test_wlog_frames_queue_instead_of_delivering(self):
        hub, (p0, p1) = make_ports(capacity=256)
        try:
            assert flush(p0, 1, [], wlogs=[(0x100, [1, 2])], step=4) == []
            entries = []
            p1.drain(entries.append)
            assert entries == []  # wlogs defer to the step-gated queue
            assert p1.pending_wlogs == [(0, 4, 0x100, [1, 2])]
        finally:
            hub.release()

    def test_batch_larger_than_the_ring_arrives_through_many_frames(self):
        # a sub-step batch several times the ring capacity: the producer
        # cuts it at the ring-derived bound and, mid-window, waits for
        # space by running the drain callback — here the consumer
        hub, (p0, p1) = make_ports(capacity=512)
        try:
            got = []
            rows = [flatten_boundary_entry(entry(i)) for i in range(200)]
            rows += [(0x40, [i]) for i in range(5)]
            p0.step = 2
            spilled = p0.write_batch(
                1, rows, lambda: p1.drain(got.append), False
            )
            p1.drain(got.append)
            assert spilled == []
            assert p0.bytes_out > 4 * 512
            assert p0.frames_out > 8
            assert p0.bytes_out / p0.frames_out <= 512 // 2
            assert [e[2] for e in got] == list(range(200))
            assert p1.pending_wlogs == [(0, 2, 0x40, [i]) for i in range(5)]
        finally:
            hub.release()

    def test_spilled_frames_continue_the_ring_stream(self):
        # two writes to one va in one sub-step, cut into two frames of
        # which the second spills: the consumer decodes ring frames
        # first, then the relayed spill, so issue order survives — and
        # once one frame spills the rest of the flush follows it
        hub, (p0, p1) = make_ports(capacity=192)
        try:
            wlogs = [(0x80, [b"a" * 40]), (0x80, [b"b" * 40]), (0x88, [3])]
            sizes = [len(f) + 4 for f in pack([], wlogs, bound=p0.frame_bound)]
            assert len(sizes) == 3
            # leave room for the first frame and not the second; the
            # small third one would fit again and must spill regardless
            (filler,) = pack([entry(0)])
            assert p0.try_write(1, filler, lambda: None, True)
            used = len(filler) + 4 + sizes[0]
            assert used + sizes[1] > 192 >= used + sizes[2]
            spilled = flush(p0, 1, [], wlogs, step=5, may_spill=True)
            assert len(spilled) == 2
            got = []
            p1.drain(got.append)  # window-end ring drain
            for frame in spilled:  # then the parent's spill relay
                p1.deliver(0, frame, got.append)
            assert len(got) == 1
            assert p1.pending_wlogs == [(0, 5, va, vals) for va, vals in wlogs]
            mem = {}
            p1.apply_wlogs(4, mem.__setitem__)
            assert mem == {}  # sub-step 5 is not visible at 4
            p1.apply_wlogs(5, mem.__setitem__)
            assert mem == {0x80: [b"b" * 40], 0x88: [3]}  # last write wins
            assert p1.pending_wlogs == []
        finally:
            hub.release()


def null_dispatcher(cycles=5.0):
    def dispatch(sim, lane, record, start):
        return cycles

    return dispatch


def cross_dispatcher():
    """Quiet except for the label ``cross``, which sends one message to
    the first lane of the other node (a guaranteed boundary record)."""

    def dispatch(sim, lane, record, start):
        if record.label == "cross":
            dst = (lane.network_id + sim.config.lanes_per_node) % (
                sim.config.total_lanes
            )
            sim.send(
                MessageRecord(
                    dst, NEW_THREAD, "landed",
                    src_network_id=lane.network_id,
                ),
                start + 2.0,
                src_node=sim.config.node_of(lane.network_id),
            )
        return 2.0

    return dispatch


def chain_dispatcher(hops):
    """Every delivery forwards to the next lane round-robin: constant
    cross-shard traffic, the worst case for the boundary fabric."""
    executed = []

    def dispatch(sim, lane, record, start):
        executed.append((lane.network_id, record.label, start))
        remaining = record.operands[0]
        if remaining > 0:
            dst = (lane.network_id + 1) % sim.config.total_lanes
            sim.send(
                MessageRecord(
                    dst, NEW_THREAD, record.label, (remaining - 1,),
                    src_network_id=lane.network_id,
                ),
                start + 2.0,
                src_node=sim.config.node_of(lane.network_id),
            )
        return 2.0

    dispatch.executed = executed
    return dispatch


class TestAdaptiveLookahead:
    """Quiet windows widen multiplicatively; any boundary record
    collapses the width back to base; a cap is honored — and none of it
    moves the fingerprint."""

    def _run(self, dispatcher, injections, parallel=True, **overrides):
        sim = Simulator(
            bench_machine(nodes=2, **overrides),
            dispatcher=dispatcher,
            shards=2,
            parallel=parallel,
        )
        for lane, label, t in injections:
            sim.inject(MessageRecord(lane, NEW_THREAD, label), t=t)
        sim.run()
        fp = sim.stats.scalar_snapshot()
        metrics = sim.parallel_metrics()
        sim.shutdown()
        return fp, metrics

    #: idle gaps are several lookaheads (600 cycles) wide, so every
    #: window between them completes without boundary records
    QUIET = [(0, "a", 0.0), (0, "b", 5000.0), (0, "c", 10000.0),
             (0, "d", 20000.0), (0, "e", 25000.0), (0, "f", 30000.0)]

    def test_quiet_windows_widen_up_to_the_cap(self):
        fp, metrics = self._run(null_dispatcher(), self.QUIET)
        hist = metrics["window_hist"]
        assert max(hist) > 1  # widening actually happened
        assert max(hist) <= metrics["adaptive_max"] == 8
        assert sum(hist.values()) == metrics["windows"]
        assert metrics["boundary_records"] == 0
        seq_fp, _ = self._run(null_dispatcher(), self.QUIET, parallel=False)
        assert fp == seq_fp

    def test_boundary_record_collapses_the_window(self):
        inj = list(self.QUIET)
        inj[3] = (0, "cross", 20000.0)  # emits one boundary record
        fp, metrics = self._run(cross_dispatcher(), inj)
        hist = metrics["window_hist"]
        assert metrics["boundary_records"] >= 1
        assert max(hist) > 1
        # exactly one window runs at base width per quiet ramp-up; a
        # second base-width window proves the cross record collapsed it
        assert hist[1] >= 2
        seq_fp, _ = self._run(cross_dispatcher(), inj, parallel=False)
        assert fp == seq_fp

    def test_adaptive_max_caps_the_widening(self):
        _fp, metrics = self._run(
            null_dispatcher(), self.QUIET, parallel_adaptive_max=2
        )
        assert max(metrics["window_hist"]) <= 2


def spray_dispatcher():
    """Every delivery fans out to *every other lane*: the densest
    boundary traffic the fabric can see, sized to overflow tiny rings."""

    def dispatch(sim, lane, record, start):
        remaining = record.operands[0]
        if remaining > 0:
            me = lane.network_id
            for dst in range(sim.config.total_lanes):
                if dst == me:
                    continue
                sim.send(
                    MessageRecord(
                        dst, NEW_THREAD, record.label, (remaining - 1,),
                        src_network_id=me,
                    ),
                    start + 2.0,
                    src_node=sim.config.node_of(me),
                )
        return 2.0

    return dispatch


class TestSpillParity:
    """Ring capacity is a perf knob, never a correctness one: with the
    rings shrunk to a couple of frames, the bulk of the boundary traffic
    takes the pickled-Pipe spill path — and the fingerprint must not
    move."""

    @pytest.fixture()
    def tiny_rings(self, monkeypatch):
        from repro.machine import parallel as par

        orig = par._RingHub.__init__

        def tiny(self, shards, capacity, ctx):
            orig(self, shards, min(capacity, 128), ctx)

        monkeypatch.setattr(par._RingHub, "__init__", tiny)

    def _spray_run(self, parallel, hops=3):
        sim = Simulator(
            bench_machine(nodes=4),
            dispatcher=spray_dispatcher(),
            shards=4 if parallel else 1,
            parallel=parallel,
        )
        for i in range(sim.config.total_lanes):
            sim.inject(
                MessageRecord(i, NEW_THREAD, f"spray{i}", (hops,)), t=0.0
            )
        sim.run()
        fp = sim.stats.scalar_snapshot()
        metrics = sim.parallel_metrics()
        sim.shutdown()
        return fp, metrics

    def test_overflow_spill_path_is_bit_exact(self, tiny_rings):
        par_fp, metrics = self._spray_run(parallel=True)
        assert metrics["ring_overflows"] > 0  # the spill path really ran
        assert metrics["spill_phases"] > 0
        seq_fp, _ = self._spray_run(parallel=False)
        assert par_fp == seq_fp

    def test_roomy_rings_never_overflow(self):
        par_fp, metrics = self._spray_run(parallel=True)
        assert metrics["ring_overflows"] == 0
        assert metrics["boundary_bytes"] > 0
        assert metrics["boundary_records"] > 0
        seq_fp, _ = self._spray_run(parallel=False)
        assert par_fp == seq_fp
