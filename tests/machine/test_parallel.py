"""Conservative sharded execution: lookahead, partitioning, windowed runs.

The parity of full application runs (sequential vs sharded) lives in
``tests/integration/test_parallel_parity.py``; this module covers the
machine-layer mechanics — the lookahead knob, shard validation, bounded
stepping, the shard scheduler, and the one sharded mode's API surface.
"""

import os
import subprocess
import sys

import pytest

from repro.harness import fingerprint
from repro.machine import (
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


class TestLookahead:
    def test_default_lookahead_is_dram_transit(self):
        cfg = bench_machine(nodes=2)
        # min(cross-node message latency, remote DRAM transit): with the
        # paper defaults the DRAM transit (600) undercuts the 1000-cycle
        # message latency
        assert cfg.conservative_lookahead_cycles == min(
            float(cfg.remote_msg_latency_cycles),
            cfg.remote_dram_transit_cycles,
        )
        assert cfg.conservative_lookahead_cycles == 600.0

    def test_message_latency_can_be_the_binding_term(self):
        cfg = bench_machine(nodes=2, remote_msg_latency_cycles=100)
        assert cfg.conservative_lookahead_cycles == 100.0

    def test_ratio_one_means_zero_lookahead(self):
        cfg = bench_machine(nodes=2, remote_dram_latency_ratio=1)
        assert cfg.conservative_lookahead_cycles == 0.0


class TestShardValidation:
    def test_shard_partition_is_contiguous_and_balanced(self):
        sim = Simulator(
            bench_machine(nodes=10),
            dispatcher=null_dispatcher(),
            shards=3,
        )
        part = sim._shard_of_node
        assert part == sorted(part)  # contiguous blocks
        assert set(part) == {0, 1, 2}  # every shard owns nodes
        sizes = [part.count(s) for s in range(3)]
        assert max(sizes) - min(sizes) <= 1  # balanced

    def test_sequential_has_no_partition(self):
        sim = Simulator(bench_machine(nodes=4), dispatcher=null_dispatcher())
        assert sim._shard_of_node is None

    def test_more_shards_than_nodes_rejected(self):
        with pytest.raises(SimulationError, match="exceed"):
            Simulator(
                bench_machine(nodes=2),
                dispatcher=null_dispatcher(),
                shards=4,
            )

    def test_zero_shards_rejected(self):
        with pytest.raises(SimulationError):
            Simulator(
                bench_machine(nodes=2),
                dispatcher=null_dispatcher(),
                shards=0,
            )

    def test_zero_lookahead_rejected(self):
        with pytest.raises(SimulationError, match="lookahead"):
            Simulator(
                bench_machine(nodes=2, remote_dram_latency_ratio=1),
                dispatcher=null_dispatcher(),
                shards=2,
            )

    def test_in_process_shards_honor_until(self):
        disp = null_dispatcher(cycles=1.0)
        cfg = bench_machine(nodes=2)
        sim = Simulator(cfg, dispatcher=disp, shards=2)
        # one event per shard per tick, so both shard heaps stay populated
        other = cfg.lanes_per_node  # first lane of node 1 (shard 1)
        for i, t in enumerate((10.0, 20.0, 30.0)):
            sim.inject(MessageRecord(0, NEW_THREAD, f"a{i}"), t=t)
            sim.inject(MessageRecord(other, NEW_THREAD, f"b{i}"), t=t)
        sim.run(until=15.0)
        assert sorted(label for _, label, _ in disp.executed) == ["a0", "b0"]
        assert not sim.stats.quiesced  # later events still queued
        sim.run(until=25.0)
        assert sorted(label for _, label, _ in disp.executed) == [
            "a0", "a1", "b0", "b1"
        ]
        sim.run()  # unbounded finishes the rest
        assert len(disp.executed) == 6
        assert sim.stats.quiesced

    @pytest.mark.parametrize("shards", [1, 2])
    def test_stall_dump_sees_what_a_bounded_drain_left_queued(self, shards):
        # in-process shards keep queued entries in the scheduler's heaps,
        # not sim._heap: the dump must look there too
        sim = Simulator(
            bench_machine(nodes=2),
            dispatcher=null_dispatcher(),
            shards=shards,
        )
        other = sim.config.lanes_per_node  # first lane of node 1
        for i, lane in enumerate((0, other, 0, other)):
            sim.inject(MessageRecord(lane, NEW_THREAD, f"r{i}"), t=1000.0 * i)
        sim.run(until=500.0)
        assert not sim.stats.quiesced
        dump = sim.stall_dump()
        assert dump["heap_events"] == 3
        assert dump["next_events"] == [
            (1000.0, other, "r1"), (2000.0, 0, "r2"), (3000.0, other, "r3")
        ]

    def test_cross_shard_blocking_read_rejected(self):
        sim = Simulator(
            bench_machine(nodes=2),
            dispatcher=null_dispatcher(),
            shards=2,
        )
        with pytest.raises(SimulationError, match="blocking"):
            sim.dram_issue(
                0, 0, True,
                ((0.0, 1, 64, 0,
                  MessageRecord(0, NEW_THREAD, "r", src_network_id=0)),),
                blocking=True,
            )

    def test_same_shard_blocking_read_allowed(self):
        sim = Simulator(
            bench_machine(nodes=4),
            dispatcher=null_dispatcher(),
            shards=2,
        )
        t_back = sim.dram_issue(
            0, 0, True,
            ((0.0, 1, 64, 0,
              MessageRecord(0, NEW_THREAD, "r", src_network_id=0)),),
            blocking=True,
        )
        assert t_back > 0.0


class TestBoundedStepping:
    """``run(until=...)`` — the windowed stepper the shard drivers use."""

    def _sim(self):
        disp = null_dispatcher(cycles=1.0)
        sim = Simulator(bench_machine(nodes=1), dispatcher=disp)
        for i, t in enumerate((10.0, 20.0, 30.0)):
            sim.inject(MessageRecord(0, NEW_THREAD, f"e{i}"), t=t)
        return sim, disp

    def test_until_is_exclusive_and_heap_survives(self):
        sim, disp = self._sim()
        sim.run(until=20.0)
        assert [label for _, label, _ in disp.executed] == ["e0"]
        assert len(sim._queued()) == 2  # later events still queued
        assert sim.stats.events_executed == 1

    def test_reentry_continues_where_it_stopped(self):
        sim, disp = self._sim()
        sim.run(until=15.0)
        sim.run(until=25.0)
        assert [label for _, label, _ in disp.executed] == ["e0", "e1"]
        sim.run()  # unbounded finishes the rest
        assert [label for _, label, _ in disp.executed] == ["e0", "e1", "e2"]
        assert sim._queued() == []

    def test_until_before_first_event_is_a_no_op(self):
        sim, disp = self._sim()
        sim.run(until=5.0)
        assert disp.executed == []
        assert len(sim._queued()) == 3

    def test_max_events_is_per_call(self):
        # each bounded run() gets its own budget (the guard trips when
        # the budget-th event executes), so 2-per-call passes across two
        # windows where a single 2-total run over 3 events raises
        sim, disp = self._sim()
        sim.run(until=15.0, max_events=2)
        sim.run(until=25.0, max_events=2)
        assert len(disp.executed) == 2

    def test_max_events_still_guards_within_window(self):
        sim, _ = self._sim()
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(until=40.0, max_events=2)

    def test_busy_lane_crossing_the_window_finishes_its_event(self):
        # an event started before `until` runs to completion (events are
        # atomic); only *deliveries* at t >= until are deferred
        disp = null_dispatcher(cycles=100.0)
        sim = Simulator(bench_machine(nodes=1), dispatcher=disp)
        sim.inject(MessageRecord(0, NEW_THREAD, "long"), t=10.0)
        sim.run(until=20.0)
        assert sim.stats.final_tick == 110.0


class TestShardScheduler:
    """In-process sharded runs against the sequential reference."""

    def _chain_dispatcher(self, hops):
        """Each delivery forwards to the next lane round-robin until the
        hop budget is spent — a workload that crosses nodes constantly."""
        executed = []

        def dispatch(sim, lane, record, start):
            executed.append((lane.network_id, record.label, start))
            remaining = record.operands[0]
            if remaining > 0:
                dst = (lane.network_id + 1) % sim.config.total_lanes
                sim.send(
                    MessageRecord(
                        dst,
                        NEW_THREAD,
                        record.label,
                        (remaining - 1,),
                        src_network_id=lane.network_id,
                    ),
                    start + 2.0,
                    src_node=sim.config.node_of(lane.network_id),
                )
            return 2.0

        dispatch.executed = executed
        return dispatch

    def _run(self, shards):
        disp = self._chain_dispatcher(hops=40)
        sim = Simulator(
            bench_machine(nodes=4), dispatcher=disp, shards=shards
        )
        for i in range(sim.config.total_lanes):
            sim.inject(MessageRecord(i, NEW_THREAD, f"chain{i}", (40,)), t=0.0)
        sim.run()
        return fingerprint(sim), disp.executed

    def test_sharded_run_is_bit_identical(self):
        fp1, exec1 = self._run(shards=1)
        for shards in (2, 4):
            fp, ex = self._run(shards=shards)
            assert fp == fp1
            # per-lane execution traces match exactly (order within a
            # lane is the sequential order restricted to that lane)
            for lane in {e[0] for e in exec1}:
                assert [e for e in ex if e[0] == lane] == [
                    e for e in exec1 if e[0] == lane
                ]

    def test_multiple_drains_reuse_the_scheduler(self):
        def run(shards):
            disp = self._chain_dispatcher(hops=10)
            sim = Simulator(
                bench_machine(nodes=2), dispatcher=disp, shards=shards
            )
            sim.inject(MessageRecord(0, NEW_THREAD, "a", (10,)), t=0.0)
            sim.run()
            first = sim.stats.events_executed
            assert first == 11
            sched = sim._scheduler
            # an injection between drains is adopted like any other push
            sim.inject(MessageRecord(1, NEW_THREAD, "b", (10,)), t=0.0)
            sim.run()
            assert sim._scheduler is sched
            assert sim.stats.events_executed == 2 * first
            return fingerprint(sim)

        # the cumulative fingerprint over both drains stays sequential
        assert run(shards=2) == run(shards=1)

    def test_host_mailbox_matches_sequential(self):
        from repro.machine import HOST_NWID

        def both(shards):
            disp = null_dispatcher()
            sim = Simulator(
                bench_machine(nodes=2), dispatcher=disp, shards=shards
            )
            for i in range(4):
                sim.send(
                    MessageRecord(
                        HOST_NWID, 0, f"done{i}", (i,), src_network_id=i
                    ),
                    float(10 * i),
                    src_node=sim.config.node_of(i),
                )
            sim.run()
            return fingerprint(sim)

        assert both(shards=2) == both(shards=1)

    @pytest.mark.parametrize(
        "mode", [{}, dict(shards=2)], ids=["sequential", "shards2"]
    )
    def test_host_mail_honors_the_bound(self, mode):
        # host mail due at or after until= stays queued, like any other
        # event: it is not in the inbox yet, and the drain is not quiesced
        from repro.machine import HOST_NWID

        sim = Simulator(
            bench_machine(nodes=2), dispatcher=null_dispatcher(), **mode
        )
        for i in range(4):
            sim.send(
                MessageRecord(HOST_NWID, 0, f"done{i}", (i,), src_network_id=i),
                float(1000 * i),
                src_node=sim.config.node_of(i),
            )
        whole = sorted(t for t, _seq, _dst, _rec in sim._queued())
        cut = (whole[1] + whole[2]) / 2
        stats = sim.run(until=cut)
        assert [t for t, _ in sim.host_inbox] == whole[:2]
        assert not stats.quiesced and stats.final_tick == whole[1]
        stats = sim.run()
        assert [t for t, _ in sim.host_inbox] == whole
        assert stats.quiesced

    def test_shutdown_is_idempotent(self):
        # UpDownRuntime.shutdown() is a no-op kept for existing callers:
        # any number of calls, and the runtime still drains afterwards
        from repro.udweave import UDThread, UpDownRuntime, event

        rt = UpDownRuntime(bench_machine(nodes=2), shards=2)

        @rt.register
        class Ping(UDThread):
            @event
            def go(self, ctx):
                ctx.yield_terminate()

        rt.run()
        rt.shutdown()
        rt.shutdown()
        rt.start(0, "Ping::go")
        assert rt.run().events_executed == 1


def _mail_and_events(shards):
    """2 nodes: six lane events 500 cycles apart, alternating nodes, and
    four host messages 1000 cycles apart."""
    from repro.machine import HOST_NWID

    sim = Simulator(
        bench_machine(nodes=2), dispatcher=null_dispatcher(cycles=1.0),
        shards=shards,
    )
    per_node = sim.config.lanes_per_node
    for i in range(6):
        sim.inject(
            MessageRecord((i % 2) * per_node, NEW_THREAD, f"e{i}"),
            t=500.0 * i,
        )
    for i in range(4):
        sim.send(
            MessageRecord(HOST_NWID, 0, f"done{i}", (i,), src_network_id=i),
            1000.0 * i,
            src_node=sim.config.node_of(i),
        )
    return sim


class TestOneDrainEnd:
    """Sequential and sharded drains end in the same ``Simulator._settle``:
    host mail is pending work in both, delivered at the same point."""

    def test_scheduler_is_built_with_the_simulator(self):
        sim = _mail_and_events(shards=2)
        # pushes made before any drain already sit in the shard heaps
        assert not sim._heap and sum(map(len, sim._shard_heaps)) == 6
        assert len(sim._queued()) == 10  # the host mail counts too
        assert sim.parallel_metrics() == {"windows": 0}
        assert _mail_and_events(shards=1).parallel_metrics() is None

    def test_stall_dump_sees_pending_mail_in_every_mode(self):
        def dump(shards):
            sim = _mail_and_events(shards)
            stats = sim.run(until=1500.0)
            assert not stats.quiesced
            d = sim.stall_dump()
            return fingerprint(sim), {
                k: d[k] for k in (
                    "heap_events", "next_events", "parked_records",
                    "pending_threads",
                )
            }

        seq = dump(shards=1)
        assert seq == dump(shards=2)
        fp, d = seq
        assert [(t, label) for t, label, _ops in fp["mailbox"]] == [
            (0.0, "done0"), (1000.0, "done1"),
        ]
        # three lane events and two host messages are still pending
        assert d["heap_events"] == 5
        assert sum(dest < 0 for _t, dest, _label in d["next_events"]) == 2

    def test_aborted_drain_leaves_mail_pending_in_every_mode(self):
        whole = _mail_and_events(shards=1)
        whole.run()
        assert len(whole.host_inbox) == 4

        def abort_then_resume(shards):
            sim = _mail_and_events(shards)
            with pytest.raises(SimulationError, match="max_events"):
                sim.run(max_events=3)
            aborted = fingerprint(sim)
            assert sim.run().quiesced
            return aborted, fingerprint(sim)

        seq = abort_then_resume(shards=1)
        assert seq == abort_then_resume(shards=2)
        aborted, resumed = seq
        # an abort raises before the drain end: no mail is delivered yet
        assert aborted["mailbox"] == []
        assert aborted["model"]["final_tick"] == 1001.0
        assert resumed == fingerprint(whole)


class TestOneShardedMode:
    """``shards=N`` is the only sharded mode: the forked-worker spellings
    are gone, not aliased, and nothing imports ``multiprocessing``."""

    def test_removed_spellings_are_type_errors(self):
        from repro.harness import run_pagerank
        from repro.graph import rmat
        from repro.machine import MachineConfig

        with pytest.raises(TypeError, match="parallel"):
            Simulator(
                bench_machine(nodes=2), dispatcher=null_dispatcher(),
                shards=2, parallel=True,
            )
        with pytest.raises(TypeError, match="parallel_ring_kib"):
            MachineConfig(parallel_ring_kib=64)
        with pytest.raises(TypeError, match="parallel"):
            run_pagerank(rmat(4, seed=1), 2, shards=2, parallel=True)

    def test_import_leaves_multiprocessing_unloaded(self):
        # a sharded drain included: the shard scheduler is imported
        # lazily by the first sharded Simulator and needs no process pool
        code = (
            "import sys\n"
            "import repro, repro.machine, repro.udweave, repro.harness\n"
            "import repro.apps, repro.faults, repro.observe, repro.service\n"
            "from repro.machine import MessageRecord, NEW_THREAD, Simulator\n"
            "from repro.machine import bench_machine\n"
            "assert 'repro.machine.parallel' not in sys.modules\n"
            "sim = Simulator(bench_machine(nodes=2),\n"
            "                dispatcher=lambda *a: 1.0, shards=2)\n"
            "sim.inject(MessageRecord(0, NEW_THREAD, 'e'))\n"
            "assert sim.run().events_executed == 1\n"
            "assert 'repro.machine.parallel' in sys.modules\n"
            "leaked = sorted(m for m in sys.modules\n"
            "                if m.split('.')[0] == 'multiprocessing')\n"
            "assert not leaked, leaked\n"
        )
        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        subprocess.run(
            [sys.executable, "-c", code],
            check=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
