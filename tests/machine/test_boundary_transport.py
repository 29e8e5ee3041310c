"""Shared-memory boundary transport: batch frames, rings, backpressure.

Covers the machine-layer mechanics of the parallel boundary fabric —
the batched frame (flat rows of every boundary record type and value
shape, pickled once per frame and rebuilt type-exactly; splitting at
the ring-derived bound) and the fixed-capacity shared-memory rings
(wraparound, a full ring waiting for its consumer, the lone oversized
record) — plus end-to-end parity of forked runs whose rings are far
smaller than their traffic.  Full application parity lives in
``tests/integration/test_parallel_parity.py``.
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


def pack(entries, wlogs=(), bound=ROOMY):
    """The frames one flush of ``entries`` + ``wlogs`` produces."""
    rows = [flatten_boundary_entry(e) for e in entries] + list(wlogs)
    return list(pack_frames(rows, bound))


def roundtrip(entry):
    (frame,) = pack([entry])
    (decoded,), wlogs = unpack_frame(frame)
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
        frame = pickle.dumps([row[:-1]], protocol=5)
        with pytest.raises(ValueError, match="corrupt boundary frame"):
            unpack_frame(frame)

    def test_wlog_rows_ride_the_frame_type_exact(self):
        entry = (1.0, 0, 1, MessageRecord(0, NEW_THREAD, "x"))
        (frame,) = pack([entry], wlogs=[(0x4000, [1.0, -7, 2**66])])
        entries, wlogs = unpack_frame(frame)
        assert [e[2] for e in entries] == [1]
        assert wlogs == [(0x4000, [1.0, -7, 2**66])]
        assert [type(v) for v in wlogs[0][1]] == [float, int, int]

    def test_batch_is_one_frame_in_producer_order(self):
        entries = [
            (float(i), 0, i, MessageRecord(0, NEW_THREAD, "m", (i,), label_id=1))
            for i in range(500)
        ]
        (frame,) = pack(entries)
        out, _wlogs = unpack_frame(frame)
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
        frames = pack(entries, wlogs, bound=256)
        assert len(frames) > 10
        assert all(len(f) <= 256 for f in frames)
        seqs, writes = [], []
        for frame in frames:
            out, w = unpack_frame(frame)
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


def flush(port, target, entries, wlogs=(), drain_cb=lambda: None):
    """One peer's share of a window flush."""
    rows = [flatten_boundary_entry(e) for e in entries] + list(wlogs)
    port.write_batch(target, rows, drain_cb)


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
                flush(p0, 1, [entry(i)])
                p1.drain(got.append)
            assert p0.wr[1] > 128 * 10  # really wrapped, repeatedly
            assert p0.frames_out == 100
            assert [e[2] for e in got] == list(range(100))
            assert [e[3].operands for e in got] == [(i,) for i in range(100)]
        finally:
            hub.release()

    def test_full_ring_waits_for_the_consumer(self):
        # a full ring is not an error and loses nothing: the producer
        # runs the drain callback until the consumer has made room
        hub, (p0, p1) = make_ports(capacity=128)
        try:
            got, calls = [], []

            def consume():
                calls.append(p0.frames_out)
                p1.drain(got.append)

            for i in range(20):
                flush(p0, 1, [entry(i)], drain_cb=consume)
            assert calls  # the ring really filled
            assert calls[0] > 1  # ...and only after several frames fit
            p1.drain(got.append)
            assert [e[2] for e in got] == list(range(20))
        finally:
            hub.release()

    def test_oversized_frame_is_a_hard_error(self):
        # one record whose frame exceeds the whole ring: pack_frames
        # cannot cut it and no amount of waiting makes it fit
        hub, (p0, _p1) = make_ports(capacity=64)
        try:
            huge = (1.0, 0, 1, MessageRecord(0, NEW_THREAD, "m", (b"x" * 200,)))
            with pytest.raises(SimulationError, match="parallel_ring_kib"):
                flush(p0, 1, [huge])
            assert p0.frames_out == 0
        finally:
            hub.release()

    def test_wlog_frames_queue_instead_of_delivering(self):
        hub, (p0, p1, p2) = make_ports(capacity=256, shards=3)
        try:
            # the higher-numbered producer's frame lands first
            flush(p2, 1, [], wlogs=[(0x100, [9])])
            flush(p0, 1, [], wlogs=[(0x100, [1, 2]), (0x100, [3])])
            entries = []
            p1.drain(entries.append)
            assert entries == []  # wlogs defer to the next window's start
            assert sorted(p1.pending_wlogs) == [
                (0, 0x100, [1, 2]), (0, 0x100, [3]), (2, 0x100, [9])
            ]
            # applied in producer order, each producer's rows in issue
            # order — whatever the arrival interleaving was
            applied = []
            p1.apply_wlogs(lambda va, vals: applied.append(vals))
            assert applied == [[1, 2], [3], [9]]
            assert p1.pending_wlogs == []
        finally:
            hub.release()

    def test_batch_larger_than_the_ring_arrives_through_many_frames(self):
        # a window's batch several times the ring capacity: the producer
        # cuts it at the ring-derived bound and waits for space by
        # running the drain callback — here the consumer
        hub, (p0, p1) = make_ports(capacity=512)
        try:
            got = []
            rows = [flatten_boundary_entry(entry(i)) for i in range(200)]
            rows += [(0x40, [i]) for i in range(5)]
            p0.write_batch(1, rows, lambda: p1.drain(got.append))
            p1.drain(got.append)
            assert p0.bytes_out > 4 * 512
            assert p0.frames_out > 8
            assert p0.bytes_out / p0.frames_out <= 512 // 2
            assert [e[2] for e in got] == list(range(200))
            assert p1.pending_wlogs == [(0, 0x40, [i]) for i in range(5)]
        finally:
            hub.release()


def spray_dispatcher():
    """Every delivery fans out to *every other lane*: the densest
    boundary traffic the fabric can see, sized to lap tiny rings."""

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


class TestTinyRingParity:
    """Ring capacity is a speed matter only: with the rings shrunk to a
    couple of frames every producer spends its flushes waiting for its
    consumers — and the fingerprint must not move."""

    TINY = 128

    @pytest.fixture()
    def tiny_rings(self, monkeypatch):
        from repro.machine import parallel as par

        orig = par._RingHub.__init__

        def tiny(self, shards, capacity, ctx):
            orig(self, shards, TestTinyRingParity.TINY, ctx)

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

    def test_lapped_rings_are_bit_exact(self, tiny_rings):
        par_fp, metrics = self._spray_run(parallel=True)
        # 12 directed rings of 128 bytes: the stream really lapped them
        assert metrics["boundary_bytes"] > 100 * 12 * self.TINY
        seq_fp, _ = self._spray_run(parallel=False)
        assert par_fp == seq_fp

    def test_default_rings_are_bit_exact(self):
        par_fp, metrics = self._spray_run(parallel=True)
        assert metrics["boundary_bytes"] > 0
        assert metrics["boundary_records"] > 0
        seq_fp, _ = self._spray_run(parallel=False)
        assert par_fp == seq_fp
