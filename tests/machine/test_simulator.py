"""DES core: ordering, lane serialization, DRAM transactions, host mailbox."""

import pytest

from repro.machine import (
    HOST_NWID,
    MessageRecord,
    SimulationError,
    Simulator,
    bench_machine,
)
from repro.machine.events import NEW_THREAD


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

    def test_host_messages_collected(self, sim):
        sim.inject(MessageRecord(HOST_NWID, 0, "done", operands=(42,)))
        sim.run()
        msgs = sim.host_messages("done")
        assert len(msgs) == 1 and msgs[0].operands == (42,)
        assert sim.host_messages("other") == []


class TestDram:
    def test_read_requires_response(self, sim):
        with pytest.raises(SimulationError):
            sim.dram_transaction(
                None, 0.0, src_node=0, memory_node=0, nbytes=64, is_read=True
            )

    def test_remote_access_slower_than_local(self, sim):
        def response_start(s, mem_node):
            resp = MessageRecord(0, NEW_THREAD, "r", src_network_id=0)
            s.dram_transaction(resp, 0.0, 0, mem_node, 64, is_read=True)
            s.run()
            return s.dispatcher.executed[-1][2]

        t_local = response_start(sim, 0)
        sim2 = Simulator(bench_machine(nodes=2), dispatcher=null_dispatcher())
        t_remote = response_start(sim2, 1)
        assert t_remote > t_local
        # remote pays one fabric transit each way (§3.2's 7:1 knob)
        assert t_remote >= t_local + 2 * sim.config.remote_dram_transit_cycles

    def test_write_without_ack_extends_final_tick(self, sim):
        t = sim.dram_transaction(None, 0.0, 0, 0, 64, is_read=False)
        assert sim.stats.final_tick == t
        assert sim.stats.dram_writes == 1

    def test_stats_track_bytes(self, sim):
        sim.dram_transaction(MessageRecord(0, 0, "r"), 0.0, 0, 0, 64, True)
        sim.dram_transaction(None, 0.0, 0, 0, 128, False)
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
        return order, sim.stats.scalar_snapshot()

    def test_until_stepping_matches_whole_run(self):
        whole = self._fanout()
        for step in (2.5, 100.0, 333.0, 1001.0):
            assert self._fanout(step=step) == whole, step

    def test_max_events_abort_then_run_matches_whole_run(self):
        whole = self._fanout()
        for limit in (1, 3, 5, 7):
            assert self._fanout(abort_at=limit) == whole, limit
