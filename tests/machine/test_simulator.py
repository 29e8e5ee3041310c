"""DES core: ordering, lane serialization, DRAM transactions, host mailbox."""

import math
from bisect import bisect_left, insort

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import FaultPlan
from repro.harness import fingerprint
from repro.machine import (
    HOST_NWID,
    DramAccess,
    MessageRecord,
    SimulationError,
    Simulator,
    bench_machine,
)
from repro.machine.events import NEW_THREAD
from repro.machine.simulator import ACTOR_SEQ_BITS
from repro.observe import FlightRecorder


def null_dispatcher(cycles=5.0):
    executed = []

    def dispatch(sim, lane, record, start):
        executed.append((lane.network_id, record.label, start))
        return cycles

    dispatch.executed = executed
    return dispatch


@pytest.fixture
def sim():
    s = Simulator(bench_machine(nodes=2), dispatcher=null_dispatcher())
    return s


class TestExecution:
    def test_requires_dispatcher(self):
        s = Simulator(bench_machine(nodes=1))
        s.inject(MessageRecord(0, NEW_THREAD, "x"))
        with pytest.raises(SimulationError):
            s.run()

    def test_lane_serializes_events(self):
        disp = null_dispatcher(cycles=10.0)
        s = Simulator(bench_machine(nodes=1), dispatcher=disp)
        s.inject(MessageRecord(0, NEW_THREAD, "a"), t=0.0)
        s.inject(MessageRecord(0, NEW_THREAD, "b"), t=1.0)
        s.run()
        starts = [e[2] for e in disp.executed]
        assert starts == [0.0, 10.0]  # b waits for a

    def test_different_lanes_run_concurrently(self):
        disp = null_dispatcher(cycles=10.0)
        s = Simulator(bench_machine(nodes=1), dispatcher=disp)
        s.inject(MessageRecord(0, NEW_THREAD, "a"), t=0.0)
        s.inject(MessageRecord(1, NEW_THREAD, "b"), t=1.0)
        s.run()
        starts = sorted(e[2] for e in disp.executed)
        assert starts == [0.0, 1.0]

    def test_deterministic_tie_break(self):
        disp = null_dispatcher()
        s = Simulator(bench_machine(nodes=1), dispatcher=disp)
        s.inject(MessageRecord(0, NEW_THREAD, "first"), t=5.0)
        s.inject(MessageRecord(0, NEW_THREAD, "second"), t=5.0)
        s.run()
        assert [e[1] for e in disp.executed] == ["first", "second"]

    def test_max_events_guard(self):
        def renew(sim, lane, record, start):
            sim.send(record, start + 1.0, src_node=0)
            return 1.0

        s = Simulator(bench_machine(nodes=1), dispatcher=renew)
        s.inject(MessageRecord(0, NEW_THREAD, "loop"))
        with pytest.raises(SimulationError):
            s.run(max_events=100)

    def test_final_tick_covers_execution(self, sim):
        sim.inject(MessageRecord(0, NEW_THREAD, "x"))
        stats = sim.run()
        assert stats.final_tick == 5.0
        assert sim.elapsed_seconds == pytest.approx(5.0 / 2e9)


class TestTransport:
    def test_send_returns_delivery_time(self, sim):
        rec = MessageRecord(0, NEW_THREAD, "x", src_network_id=None)
        t = sim.send(rec, 0.0, src_node=None)
        assert t == 0.0  # host injection

    def test_remote_send_adds_latency(self, sim):
        cfg = sim.config
        dst = cfg.first_lane_of_node(1)
        t = sim.send(MessageRecord(dst, NEW_THREAD, "x"), 0.0, src_node=0)
        assert t >= cfg.remote_msg_latency_cycles
        assert sim.stats.messages_remote == 1

    def test_local_send_counted(self, sim):
        sim.send(MessageRecord(0, NEW_THREAD, "x"), 0.0, src_node=0)
        assert sim.stats.messages_local == 1

    def test_host_injection_counted_separately(self, sim):
        """A host-injected send (src_node=None) never rides the fabric, so
        it must not be misclassified as local node traffic."""
        sim.send(MessageRecord(0, NEW_THREAD, "x", src_network_id=None),
                 0.0, src_node=None)
        assert sim.stats.messages_host_injected == 1
        assert sim.stats.messages_local == 0
        assert sim.stats.messages_remote == 0
        assert sim.stats.messages_sent == 1

    @pytest.mark.parametrize("nwid", [None, -1, HOST_NWID - 1])
    def test_inject_range_checks_the_destination(self, sim, nwid):
        """``total_lanes`` (``None`` here; the first DRAM virtual id) and
        negative ids other than ``HOST_NWID`` raise ``issue``'s error at
        injection; the first used to die in ``_dram_arrive``."""
        if nwid is None:
            nwid = sim.config.total_lanes
        with pytest.raises(ValueError, match=f"networkID {nwid} out of range"):
            sim.inject(MessageRecord(nwid, NEW_THREAD, "x"))
        assert not sim._queued()

    def test_host_messages_collected(self, sim):
        sim.inject(MessageRecord(HOST_NWID, 0, "done", operands=(42,)))
        sim.run()
        msgs = sim.host_messages("done")
        assert len(msgs) == 1 and msgs[0].operands == (42,)
        assert sim.host_messages("other") == []


def faulted(**rates):
    """A two-node machine whose fault plan forces one message fault."""
    plan = FaultPlan(seed=3, **rates)
    draws = []
    draw = plan.message_fault

    def spy(actor, count):
        draws.append((actor, count))
        return draw(actor, count)

    plan.message_fault = spy  # bound by the machine at construction
    s = Simulator(
        bench_machine(nodes=2), dispatcher=null_dispatcher(),
        recorder=FlightRecorder("histograms"), faults=plan,
    )
    s.draws = draws
    return s


def remote_send(s, src=0, t=0.0):
    """Lane ``src`` (node 0) sends one record to node 1's first lane."""
    dst = s.config.first_lane_of_node(1)
    return s.send(MessageRecord(dst, NEW_THREAD, "x", src_network_id=src),
                  t, src_node=0)


class TestMessageFaults:
    """Fault semantics at the issue site, one forced fault per test."""

    def test_drop(self):
        s = faulted(drop_rate=1.0)
        assert remote_send(s) == math.inf
        assert s._queued() == []
        assert s._actor_seq == {1: 1}  # the drop consumed its slot
        st = s.stats
        assert (st.messages_sent, st.messages_remote) == (1, 1)
        assert st.faults_messages_dropped == 1
        assert s.recorder.msg_latency["remote"].count == 0
        assert s.recorder.fault_counts == {"msg_drop": 1}
        # the next send draws a fresh key, not the dropped one again
        remote_send(s)
        assert s.draws == [(1, 0), (1, 1)]

    def test_duplicate(self):
        s = faulted(duplicate_rate=1.0)
        t = remote_send(s)
        entries = sorted(s._queued(), key=lambda e: e[2])
        assert len(entries) == 2
        (t0, _, seq0, rec0), (t1, _, seq1, rec1) = entries
        assert seq1 == seq0 + 1 and rec0 is rec1
        assert t0 == t <= t1
        st = s.stats
        assert (st.messages_sent, st.messages_remote) == (1, 1)
        assert st.faults_messages_duplicated == 1
        assert s.recorder.msg_latency["remote"].count == 1

    def test_delay(self):
        s = faulted(delay_rate=1.0, delay_cycles=777.0)
        clean = Simulator(bench_machine(nodes=2))
        t = remote_send(s)
        assert t == remote_send(clean) + 777.0
        assert [e[0] for e in s._queued()] == [t]
        assert s.stats.faults_messages_delayed == 1

    def test_local_and_host_sends_draw_no_fault(self):
        s = faulted(drop_rate=1.0)
        local = MessageRecord(1, NEW_THREAD, "x", src_network_id=0)
        assert s.send(local, 0.0, src_node=0) < math.inf
        host = MessageRecord(s.config.first_lane_of_node(1), NEW_THREAD, "x")
        assert s.send(host, 0.0, src_node=None) < math.inf
        assert s.draws == []
        assert len(s._queued()) == 2
        st = s.stats
        assert st.faults_messages_dropped == 0
        assert (st.messages_local, st.messages_host_injected) == (1, 1)

    @pytest.mark.parametrize("nwid", [-1, 10**6])
    def test_out_of_range_networkid_moves_nothing(self, nwid):
        s = faulted(drop_rate=1.0)
        before = s.stats.scalar_snapshot()
        with pytest.raises(ValueError):
            s.send(MessageRecord(nwid, NEW_THREAD, "x", src_network_id=0),
                   0.0, src_node=0)
        assert s.stats.scalar_snapshot() == before
        assert s.network.injected_bytes(0) == 0
        assert s._actor_seq == {} and s.draws == [] and s._queued() == []


class _Plan:
    """Stands in for a batch plan: ``issue`` only counts on it."""

    parked = 0


def _issued(s, plan):
    """Everything issue touched: queue, parked records, counters, samples."""
    parked = {}
    for nwid, ln in s._lanes.items():
        records = list(ln.parked_records())
        assert all(entry[2] is plan for entry in records)
        if records:
            parked[nwid] = [(t, q, ops) for t, q, _plan, ops in records]
    return {
        "queued": sorted(
            (t, d, q, r.label, r.operands) for t, d, q, r in s._queued()
        ),
        "parked": parked,
        "parked_total": (s._parked_total, plan.parked),
        "stats": s.stats.scalar_snapshot(),
        "actors": dict(s._actor_seq),
        "latency": {k: h.count for k, h in s.recorder.msg_latency.items()},
        "faults": dict(s.recorder.fault_counts),
    }


class TestIssueRuns:
    """One run equals its elements issued one call each — records and
    parked operand tuples alike, with and without message faults."""

    @settings(max_examples=40, deadline=None)
    @given(
        elements=st.lists(
            st.tuples(
                st.floats(0.0, 1e4),
                st.sampled_from([0, 1, 2, 3]),  # node 0: 0-1, node 1: 2-3
                st.booleans(),
            ),
            min_size=1,
            max_size=10,
        ),
        rates=st.sampled_from([
            {},
            {"drop_rate": 0.3, "duplicate_rate": 0.3, "delay_rate": 0.3},
        ]),
    )
    def test_run_equals_scalar_loop(self, elements, rates):
        def machine():
            plan = _Plan()
            s = Simulator(
                bench_machine(nodes=2), dispatcher=null_dispatcher(),
                recorder=FlightRecorder("histograms"),
                faults=FaultPlan(seed=5, **rates),
            )
            run = [
                (t, nwid, (i, nwid) if parked else MessageRecord(
                    nwid, NEW_THREAD, "x", (i,), src_network_id=1,
                ))
                for i, (t, nwid, parked) in enumerate(elements)
            ]
            return s, plan, run

        whole, whole_plan, run = machine()
        whole.issue(1, 0, run, whole_plan)
        loop, loop_plan, run = machine()
        for element in run:
            loop.issue(1, 0, [element], loop_plan)
        assert _issued(whole, whole_plan) == _issued(loop, loop_plan)

    def test_faults_place_parked_tuples_like_records(self):
        """A drop parks nothing, a duplicate parks twice, a delay later."""
        for rates, placed in [
            ({"drop_rate": 1.0}, 0),
            ({"duplicate_rate": 1.0}, 2),
            ({"delay_rate": 1.0, "delay_cycles": 777.0}, 1),
        ]:
            s, plan = faulted(**rates), _Plan()
            dst = s.config.first_lane_of_node(1)
            s.issue(0, 0, [(0.0, dst, ("op",))], plan)
            parked = list(s.lane(dst).parked_records())
            assert len(parked) == s._parked_total == plan.parked == placed
            assert [q for _t, q, *_ in parked] == sorted(
                q for _t, q, *_ in parked
            )
            if "delay_rate" in rates:
                clean = Simulator(bench_machine(nodes=2))
                assert parked[0][0] == remote_send(clean) + 777.0


class _LoggingPlan:
    """A parkable plan stand-in whose executor logs each group it runs."""

    def __init__(self, label, log):
        self.label = label
        self.parked = 0
        self.log = log

    def batch_fn(self, ln, entries, lo, hi):
        self.log.append((ln.network_id, self.label, entries[lo:hi]))
        return 0.0


#: ``issue``'s ``(src_nwid, src_node)`` for seven actors: the four lanes
#: of a two-node machine, the host and both nodes' own actors
_ACTORS = [(0, 0), (1, 0), (2, 1), (3, 1), (None, None), (None, 0), (None, 1)]

_issue_step = st.tuples(
    st.just("issue"),
    st.integers(0, 5),  # which of the drawn actors issues
    st.integers(0, 1),  # the run's plan
    st.lists(
        st.tuples(
            st.floats(0.0, 100.0),  # gap since the actor's last issue
            st.sampled_from([0, 2]),  # destination: one lane per node
        ),
        min_size=1,
        max_size=6,
    ),
)
_cut_step = st.tuples(
    st.just("cut"),
    st.sampled_from([0, 2]),
    st.sampled_from(["ts", "t", "inf"]),
    st.floats(0.0, 6000.0),
    st.integers(0, 8 << ACTOR_SEQ_BITS),
)


class TestMergedParking:
    """Per-actor runs merged through a heap of their heads flush exactly
    what one sorted list per lane — ``insort`` on park, ``bisect_left``
    and a slice on flush, kept here as the reference — would.

    The reference learns what each ``issue`` placed from a twin machine
    that is sent the same run as records: records and parked tuples are
    priced, faulted and sequenced alike, so the twin's queue holds one
    ``(time, lane, seq)`` per placed copy.  Delay and duplicate faults
    deliver an actor's records out of key order; every cut shape the
    drain uses is drawn.
    """

    @pytest.mark.parametrize("shards", [1, 2])
    @settings(max_examples=100, deadline=None)
    @given(
        actors=st.lists(
            st.sampled_from(range(len(_ACTORS))),
            min_size=1, max_size=6, unique=True,
        ),
        steps=st.lists(
            st.one_of(_issue_step, _cut_step), min_size=8, max_size=60
        ),
        rates=st.sampled_from([
            {},
            {"delay_rate": 0.5, "delay_cycles": 2500.0,
             "duplicate_rate": 0.3},
        ]),
    )
    def test_merge_flushes_like_the_sorted_list(
        self, shards, actors, steps, rates
    ):
        def machine():
            return Simulator(
                bench_machine(nodes=2), dispatcher=null_dispatcher(),
                faults=FaultPlan(seed=11, **rates), shards=shards,
            )

        s, twin = machine(), machine()
        log = []
        plans = [_LoggingPlan("a", log), _LoggingPlan("b", log)]
        ref = {nwid: [] for nwid in range(4)}
        clock = [0.0] * len(_ACTORS)
        placed = set()
        ops = 0
        for step in steps:
            if step[0] == "issue":
                _, pick, p, elements = step
                actor = actors[pick % len(actors)]
                src_nwid, src_node = _ACTORS[actor]
                run = []
                for gap, nwid in elements:
                    clock[actor] += gap
                    ops += 1
                    run.append((clock[actor], nwid, (ops,)))
                s.issue(src_nwid, src_node, run, plans[p])
                twin.issue(src_nwid, src_node, [
                    (t, nwid, MessageRecord(nwid, NEW_THREAD, "x", payload))
                    for t, nwid, payload in run
                ])
                for t, dest, seq, rec in twin._queued():
                    if seq not in placed:
                        placed.add(seq)
                        insort(ref[dest], (t, seq, plans[p], rec.operands))
            else:
                _, nwid, shape, t, seq = step
                cut = {"ts": (t, seq), "t": (t,), "inf": (t, math.inf)}[shape]
                lst = ref[nwid]
                n = bisect_left(lst, cut)
                want, lst[:n] = lst[:n], []
                del log[:]
                assert s._flush_parked(s.lane(nwid), cut) == n
                groups = []
                for e in want:
                    if groups and groups[-1][1] == e[2].label:
                        groups[-1][2].append(e)
                    else:
                        groups.append((nwid, e[2].label, [e]))
                assert log == groups
            for nwid, lst in ref.items():
                parked = s.lane(nwid).parked
                assert (parked[0] if parked else None) == (
                    lst[0] if lst else None
                )
                assert list(s.lane(nwid).parked_records()) == lst
            assert s._parked_total == sum(map(len, ref.values()))
        assert sum(plan.parked for plan in plans) == len(placed)


class TestDram:
    def test_read_requires_response(self, sim):
        with pytest.raises(SimulationError):
            sim.dram_issue(None, 0, True, ((0.0, DramAccess(0, 64, 0)),))

    def test_remote_access_slower_than_local(self, sim):
        def response_start(s, mem_node):
            resp = DramAccess(mem_node, 64, 0, 0, NEW_THREAD, "r")
            s.dram_issue(0, 0, True, ((0.0, resp),))
            s.run()
            return s.dispatcher.executed[-1][2]

        t_local = response_start(sim, 0)
        sim2 = Simulator(bench_machine(nodes=2), dispatcher=null_dispatcher())
        t_remote = response_start(sim2, 1)
        assert t_remote > t_local
        # remote pays one fabric transit each way (§3.2's 7:1 knob)
        assert t_remote >= t_local + 2 * sim.config.remote_dram_transit_cycles

    def test_write_without_ack_extends_final_tick(self, sim):
        t = sim.dram_issue(None, 0, False, ((0.0, DramAccess(0, 64, 0)),))
        assert sim.stats.final_tick == t
        assert sim.stats.dram_writes == 1

    def test_stall_dump_tells_a_request_from_its_reply(self):
        """One record carries both legs of a remote access: heading to
        memory it reads ``dram→<reply label>@node``, and after the memory
        node serves it, its reply label at the requesting lane."""
        sim = Simulator(bench_machine(nodes=2), dispatcher=null_dispatcher())
        lanes = sim.config.total_lanes
        read = DramAccess(1, 64, 0, 0, NEW_THREAD, "r")
        t_read = sim.dram_issue(0, 0, True, ((0.0, read),))
        write = DramAccess(1, 64, 64)
        t_write = sim.dram_issue(None, 0, False, ((0.0, write),))
        assert sorted(sim.stall_dump()["next_events"]) == sorted([
            (t_read, lanes + 1, "dram→r@1"),
            (t_write, lanes + 1, "dram→write@1"),
        ])
        t_served = max(t_read, t_write)
        sim.run(until=t_served + 1.0)
        (t, nwid, label), = sim.stall_dump()["next_events"]
        assert (nwid, label) == (0, "r") and t > t_served
        sim.run()
        assert sim.stats.quiesced

    def test_stats_track_bytes(self, sim):
        rec = DramAccess(0, 64, 0, 0, 0, "r")
        sim.dram_issue(rec.src_network_id, 0, True, ((0.0, rec),))
        sim.dram_issue(None, 0, False, ((0.0, DramAccess(0, 128, 0)),))
        assert sim.stats.dram_bytes_read == 64
        assert sim.stats.dram_bytes_written == 128


class TestLazyLanes:
    def test_lanes_created_on_demand(self, sim):
        assert sim.instantiated_lanes == 0
        sim.lane(0)
        sim.lane(0)
        sim.lane(sim.config.total_lanes - 1)
        assert sim.instantiated_lanes == 2

    def test_invalid_lane_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.lane(sim.config.total_lanes)


class TestBoundedReentry:
    """``run(until=)`` stepping and ``max_events`` aborts leave the heap
    coherent: re-entering finishes with the un-interrupted run's
    execution order and totals."""

    @staticmethod
    def _fanout(step=None, abort_at=None):
        """Seeds on both nodes spray remote messages both directions.

        Each burst sends runs of three per destination lane and the two
        nodes' seeds are staggered past a burst's span, so consecutive
        pops share a lane (the fused-dispatch inner loop)."""
        order = []

        def dispatcher(sim, lane, rec, start):
            if rec.label == "seed":
                node = sim.config.node_of(lane.network_id)
                other = sim.config.first_lane_of_node(1 - node)
                for i in range(6):
                    sim.send(
                        MessageRecord(other + i // 3, NEW_THREAD, "w"),
                        start + 2.0 + i,
                        src_node=node,
                    )
            order.append((rec.label, lane.network_id, start))
            return 2.0

        sim = Simulator(bench_machine(nodes=2), dispatcher=dispatcher)
        dst1 = sim.config.first_lane_of_node(1)
        for t in (0.0, 1.0, 700.0, 2500.0):
            sim.inject(MessageRecord(0, NEW_THREAD, "seed"), t=t)
            sim.inject(MessageRecord(dst1, NEW_THREAD, "seed"), t=t + 60.0)
        if abort_at is not None:
            with pytest.raises(SimulationError, match="max_events"):
                sim.run(max_events=abort_at)
        if step is not None:
            t = 0.0
            while sim._heap:
                t += step
                sim.run(until=t)
        sim.run()
        return order, fingerprint(sim)

    def test_until_stepping_matches_whole_run(self):
        whole = self._fanout()
        for step in (2.5, 100.0, 333.0, 1001.0):
            assert self._fanout(step=step) == whole, step

    def test_max_events_abort_then_run_matches_whole_run(self):
        whole = self._fanout()
        for limit in (1, 3, 5, 7):
            assert self._fanout(abort_at=limit) == whole, limit


class TestRemovedKnobs:
    """Latency jitter and the ``detailed_stats`` histogram are deleted,
    not aliased: their keywords are ``TypeError``s everywhere.  Delay
    faults (``FaultPlan``) reorder messages; the ``record="full"`` lane
    spans carry the per-label event counts."""

    @pytest.mark.parametrize(
        "kw",
        [
            dict(latency_jitter_cycles=10.0),
            dict(seed=1),
            dict(detailed_stats=True),
        ],
        ids=["latency_jitter_cycles", "seed", "detailed_stats"],
    )
    def test_machine_constructors_reject(self, kw):
        from repro.udweave import UpDownRuntime

        (name,) = kw
        with pytest.raises(TypeError, match=name):
            Simulator(bench_machine(nodes=1), **kw)
        with pytest.raises(TypeError, match=name):
            UpDownRuntime(bench_machine(nodes=1), **kw)

    @pytest.mark.parametrize("kw", ["jitter_cycles", "seed"])
    def test_network_rejects(self, kw):
        from repro.machine.network import Network

        with pytest.raises(TypeError, match=kw):
            Network(bench_machine(nodes=1), **{kw: 1})

    @pytest.mark.parametrize(
        "runner",
        [
            "run_pagerank", "run_bfs", "run_triangle_count",
            "run_ingestion", "run_partial_match", "run_service",
        ],
    )
    def test_runners_reject_detailed_stats(self, runner):
        import repro.harness as harness

        # the keyword fails before any input is read: empty inputs do
        args = ([], []) if runner == "run_partial_match" else ([],)
        with pytest.raises(TypeError, match="detailed_stats"):
            getattr(harness, runner)(*args, 1, detailed_stats=True)
