"""Conservative sharded execution: lookahead, partitioning, windowed runs.

The parity of full application runs (sequential vs in-process shards vs
forked workers) lives in ``tests/integration/test_parallel_parity.py``;
this module covers the machine-layer mechanics — the lookahead knob,
shard validation, bounded stepping, and the in-process shard scheduler.
"""

import os

import pytest

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

    def test_jitter_incompatible_with_shards(self):
        with pytest.raises(SimulationError, match="jitter"):
            Simulator(
                bench_machine(nodes=2),
                dispatcher=null_dispatcher(),
                shards=2,
                latency_jitter_cycles=10.0,
            )

    def test_zero_lookahead_rejected(self):
        with pytest.raises(SimulationError, match="lookahead"):
            Simulator(
                bench_machine(nodes=2, remote_dram_latency_ratio=1),
                dispatcher=null_dispatcher(),
                shards=2,
            )

    def test_forked_workers_honor_until(self):
        # the same clamp as in-process shards (next test): later events
        # stay heaped in the workers between drains.  What executed is
        # only visible through the merged stats here — the dispatcher's
        # list lives in the children.
        cfg = bench_machine(nodes=2)
        sim = Simulator(
            cfg, dispatcher=null_dispatcher(cycles=1.0), shards=2,
            parallel=True,
        )
        for t in (10.0, 20.0, 30.0):
            sim.inject(MessageRecord(0, NEW_THREAD, "a"), t=t)
            sim.inject(MessageRecord(cfg.lanes_per_node, NEW_THREAD, "b"), t=t)
        try:
            for until, executed in ((15.0, 2), (25.0, 4), (25.0, 4)):
                stats = sim.run(until=until)
                assert stats.events_executed == executed
                assert not stats.quiesced  # later events still queued
            stats = sim.run()  # unbounded finishes the rest
            assert stats.events_executed == 6 and stats.quiesced
            assert stats.final_tick == 31.0
        finally:
            sim.shutdown()

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
            sim.dram_transaction(
                MessageRecord(0, NEW_THREAD, "r", src_network_id=0),
                0.0, 0, 1, 64, is_read=True, blocking=True,
            )

    def test_same_shard_blocking_read_allowed(self):
        sim = Simulator(
            bench_machine(nodes=4),
            dispatcher=null_dispatcher(),
            shards=2,
        )
        t_back = sim.dram_transaction(
            MessageRecord(0, NEW_THREAD, "r", src_network_id=0),
            0.0, 0, 1, 64, is_read=True, blocking=True,
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
        stats = sim.run()
        sim.shutdown()
        return stats.scalar_snapshot(), disp.executed

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
        disp = self._chain_dispatcher(hops=10)
        sim = Simulator(bench_machine(nodes=2), dispatcher=disp, shards=2)
        sim.inject(MessageRecord(0, NEW_THREAD, "a", (10,)), t=0.0)
        sim.run()
        first = sim.stats.events_executed
        assert first == 11
        sched = sim._scheduler
        sim.inject(MessageRecord(1, NEW_THREAD, "b", (10,)), t=0.0)
        sim.run()
        assert sim._scheduler is sched
        assert sim.stats.events_executed == 2 * first

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
            return [(t, r.label) for t, r in sim.host_inbox]

        assert both(shards=2) == both(shards=1)

    @pytest.mark.parametrize(
        "mode",
        [{}, dict(shards=2), dict(shards=2, parallel=True)],
        ids=["sequential", "shards2", "forked"],
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
        try:
            whole = sorted(t for t, _seq, _dst, _rec in sim._queued())
            cut = (whole[1] + whole[2]) / 2
            stats = sim.run(until=cut)
            assert [t for t, _ in sim.host_inbox] == whole[:2]
            assert not stats.quiesced and stats.final_tick == whole[1]
            stats = sim.run()
            assert [t for t, _ in sim.host_inbox] == whole
            assert stats.quiesced
        finally:
            sim.shutdown()

    def test_forked_multi_drain_parity(self):
        """Workers persist across drains: injections between run() calls
        are forwarded and the cumulative fingerprint stays sequential."""

        def run(parallel):
            disp = self._chain_dispatcher(hops=10)
            sim = Simulator(
                bench_machine(nodes=2),
                dispatcher=disp,
                shards=2 if parallel else 1,
                parallel=parallel,
            )
            sim.inject(MessageRecord(0, NEW_THREAD, "a", (10,)), t=0.0)
            sim.run()
            sim.inject(MessageRecord(1, NEW_THREAD, "b", (10,)), t=0.0)
            sim.run()
            fp = sim.stats.scalar_snapshot()
            sim.shutdown()
            return fp

        assert run(parallel=True) == run(parallel=False)

    def test_shutdown_is_idempotent(self):
        sim = Simulator(
            bench_machine(nodes=2), dispatcher=null_dispatcher(), shards=2
        )
        sim.run()
        sim.shutdown()
        sim.shutdown()


class TestWorkerFailure:
    """A dead shard worker becomes a clear ShardWorkerFailed, never a
    hung pipe read, and never an orphaned daemon process."""

    def _suicidal_dispatcher(self):
        """Executes normally except for the label ``die``, which kills
        the worker process hosting it (simulating an OOM kill / crash in
        an extension) — the parent only ever sees the closed pipe."""
        import os

        def dispatch(sim, lane, record, start):
            if record.label == "die":
                os._exit(13)
            return 2.0

        return dispatch

    def test_worker_death_mid_drain_raises_shard_worker_failed(self):
        from repro.machine.parallel import ShardWorkerFailed

        sim = Simulator(
            bench_machine(nodes=2),
            dispatcher=self._suicidal_dispatcher(),
            shards=2,
            parallel=True,
        )
        lanes_per_node = sim.config.lanes_per_node
        sim.inject(MessageRecord(0, NEW_THREAD, "ok"), t=0.0)
        # the fatal event lands on shard 1 (node 1's first lane)
        sim.inject(MessageRecord(lanes_per_node, NEW_THREAD, "die"), t=10.0)
        with pytest.raises(ShardWorkerFailed, match="worker died") as info:
            sim.run()
        assert info.value.shard == 1
        assert info.value.exitcode == 13
        sim.shutdown()

    def test_worker_killed_between_drains_detected_proactively(self):
        import os
        import signal

        from repro.machine.parallel import ShardWorkerFailed

        disp = null_dispatcher()
        sim = Simulator(
            bench_machine(nodes=2), dispatcher=disp, shards=2, parallel=True
        )
        sim.inject(MessageRecord(0, NEW_THREAD, "a"), t=0.0)
        sim.run()
        sched = sim._scheduler
        procs = list(sched._procs)
        os.kill(procs[0].pid, signal.SIGKILL)
        procs[0].join(timeout=5)
        sim.inject(MessageRecord(0, NEW_THREAD, "b"), t=0.0)
        # detected before any pipe traffic, naming shard and last window
        with pytest.raises(ShardWorkerFailed, match="shard 0") as info:
            sim.run()
        assert info.value.shard == 0
        assert info.value.window is not None  # a window did complete
        # the whole pool was torn down: no orphaned daemons
        for proc in procs:
            assert not proc.is_alive()
        sim.shutdown()

    def test_failed_pool_refuses_reuse(self):
        from repro.machine.parallel import ShardWorkerFailed

        sim = Simulator(
            bench_machine(nodes=2),
            dispatcher=self._suicidal_dispatcher(),
            shards=2,
            parallel=True,
        )
        sim.inject(
            MessageRecord(sim.config.lanes_per_node, NEW_THREAD, "die"), t=0.0
        )
        with pytest.raises(ShardWorkerFailed):
            sim.run()
        # lane/thread state died with the workers; a retry would silently
        # diverge, so the executor bricks itself instead
        sim.inject(MessageRecord(0, NEW_THREAD, "c"), t=0.0)
        with pytest.raises(SimulationError, match="no longer usable"):
            sim.run()
        sim.shutdown()

    def test_shard_worker_failed_is_exported(self):
        from repro.machine import ShardWorkerFailed as exported
        from repro.machine.parallel import ShardWorkerFailed

        assert exported is ShardWorkerFailed

    def test_dead_worker_stderr_tail_reaches_the_exception(self):
        from repro.machine.parallel import ShardWorkerFailed

        def dispatch(sim, lane, record, start):
            if record.label == "die":
                import os
                import sys

                sys.stderr.write("scratchpad checksum mismatch @ lane 2\n")
                sys.stderr.flush()
                os._exit(13)
            return 2.0

        sim = Simulator(
            bench_machine(nodes=2),
            dispatcher=dispatch,
            shards=2,
            parallel=True,
        )
        sim.inject(
            MessageRecord(sim.config.lanes_per_node, NEW_THREAD, "die"), t=0.0
        )
        with pytest.raises(ShardWorkerFailed) as info:
            sim.run()
        # the worker's dying words (captured stderr tail) are in both the
        # structured attribute and the rendered message
        assert "scratchpad checksum mismatch" in info.value.stderr_tail
        assert "scratchpad checksum mismatch" in str(info.value)
        sim.shutdown()


class TestTeardownLeavesNothingBehind:
    """ROADMAP item 4c: after a clean ``shutdown()`` and after a
    ``ShardWorkerFailed`` abort, no worker process is alive and the
    hub's shared-memory segment is gone from ``/dev/shm``."""

    def _forked(self, dispatcher, label):
        sim = Simulator(
            bench_machine(nodes=2),
            dispatcher=dispatcher,
            shards=2,
            parallel=True,
        )
        sim.inject(MessageRecord(0, NEW_THREAD, "ok"), t=0.0)
        sim.run()
        sched = sim._scheduler
        procs = list(sched._procs)
        segment = os.path.join("/dev/shm", sched._hub.shm.name)
        assert os.path.exists(segment)
        assert all(proc.is_alive() for proc in procs)
        sim.inject(MessageRecord(0, NEW_THREAD, label), t=0.0)
        return sim, procs, segment

    def _assert_nothing_left(self, procs, segment):
        for proc in procs:
            proc.join(timeout=10)
            assert not proc.is_alive()
        assert not os.path.exists(segment)

    def _assert_bricked_but_process_is_fine(self, sim):
        before = set(os.listdir("/dev/shm"))
        sim.inject(MessageRecord(0, NEW_THREAD, "again"), t=0.0)
        with pytest.raises(SimulationError, match="no longer usable"):
            sim.run()
        sim.shutdown()
        assert set(os.listdir("/dev/shm")) == before  # nothing new either
        # the process is not poisoned: a fresh simulator forks and runs
        fresh, procs, segment = self._forked(null_dispatcher(), "ok")
        fresh.run()
        assert fresh.stats.quiesced
        fresh.shutdown()
        self._assert_nothing_left(procs, segment)

    def test_after_shutdown(self):
        sim, procs, segment = self._forked(null_dispatcher(), "ok")
        sim.run()
        sim.shutdown()
        self._assert_nothing_left(procs, segment)

    def test_after_worker_failure_abort(self):
        from repro.machine.parallel import ShardWorkerFailed

        def dispatch(sim, lane, record, start):
            if record.label == "die":
                os._exit(13)
            return 2.0

        sim, procs, segment = self._forked(dispatch, "die")
        with pytest.raises(ShardWorkerFailed):
            sim.run()
        # the abort itself released everything, before any shutdown()
        self._assert_nothing_left(procs, segment)
        sim.shutdown()

    def test_after_a_record_too_large_for_a_ring(self, monkeypatch):
        # failure drill "exhaust a ring": one cross-shard record whose
        # frame exceeds a whole (shrunken) ring cannot travel — the run
        # ends in the typed error naming the remedy, and cleanly
        from repro.machine import parallel as par

        orig = par._RingHub.__init__
        monkeypatch.setattr(
            par._RingHub,
            "__init__",
            lambda self, shards, capacity, ctx: orig(self, shards, 512, ctx),
        )

        def dispatch(sim, lane, record, start):
            if record.label == "bloat":
                sim.send(
                    MessageRecord(
                        sim.config.lanes_per_node, NEW_THREAD, "landed",
                        (b"x" * 2048,), src_network_id=lane.network_id,
                    ),
                    start + 2.0,
                    src_node=0,
                )
            return 2.0

        sim, procs, segment = self._forked(dispatch, "bloat")
        with pytest.raises(SimulationError, match="parallel_ring_kib"):
            sim.run()
        self._assert_nothing_left(procs, segment)
        self._assert_bricked_but_process_is_fine(sim)

    def test_after_a_handler_raises_inside_a_worker(self):
        # failure drill "raise inside a handler in a worker": the run
        # ends in SimulationError carrying the worker's traceback
        def dispatch(sim, lane, record, start):
            if record.label == "boom":
                raise ValueError("scratchpad slot 7 is not a counter")
            return 2.0

        sim, procs, segment = self._forked(dispatch, "boom")
        with pytest.raises(SimulationError, match="shard worker failed") as info:
            sim.run()
        assert "ValueError: scratchpad slot 7 is not a counter" in str(info.value)
        assert "Traceback" in str(info.value)
        self._assert_nothing_left(procs, segment)
        self._assert_bricked_but_process_is_fine(sim)

    def test_after_keyboard_interrupt_in_the_parent(self, monkeypatch):
        # failure drill "KeyboardInterrupt in the parent": Ctrl-C lands
        # while the window loop waits on the workers' pipes.  The pool
        # must not outlive the interrupt half-way through a window.
        import multiprocessing.connection as mpc

        sim, procs, segment = self._forked(null_dispatcher(), "ok")
        real_wait = mpc.wait
        calls = []

        def wait(*args, **kw):
            calls.append(1)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return real_wait(*args, **kw)

        monkeypatch.setattr(mpc, "wait", wait)
        with pytest.raises(KeyboardInterrupt):
            sim.run()
        monkeypatch.undo()
        self._assert_nothing_left(procs, segment)
        self._assert_bricked_but_process_is_fine(sim)


class TestShutdownIdempotence:
    """Teardown must be safe to repeat — ``shutdown()`` after a worker
    failure, a second ``shutdown()``, and the GC ``__del__`` path all hit
    the same executor, and none may raise on already-closed pipes."""

    def test_double_shutdown_is_a_noop(self):
        sim = Simulator(
            bench_machine(nodes=2),
            dispatcher=null_dispatcher(),
            shards=2,
            parallel=True,
        )
        sim.inject(MessageRecord(0, NEW_THREAD, "a"), t=0.0)
        sim.run()
        sim.shutdown()
        sim.shutdown()  # second call finds nothing left to do

    def test_shutdown_after_worker_failure_does_not_raise(self):
        import os

        from repro.machine.parallel import ShardWorkerFailed

        def dispatch(sim, lane, record, start):
            if record.label == "die":
                os._exit(13)
            return 2.0

        sim = Simulator(
            bench_machine(nodes=2),
            dispatcher=dispatch,
            shards=2,
            parallel=True,
        )
        sim.inject(MessageRecord(0, NEW_THREAD, "die"), t=0.0)
        with pytest.raises(ShardWorkerFailed):
            sim.run()
        # the failure path already aborted the pool; both explicit
        # shutdown and the destructor must cope with the dead state
        sim.shutdown()
        sim.shutdown()
        sim._scheduler.__del__()

    def test_close_before_any_drain_keeps_executor_usable(self):
        # close() on a never-forked pool must not brick it: nothing has
        # run in a worker yet, so no state is lost
        sim = Simulator(
            bench_machine(nodes=2),
            dispatcher=null_dispatcher(),
            shards=2,
            parallel=True,
        )
        sim._scheduler = __import__(
            "repro.machine.parallel", fromlist=["make_scheduler"]
        ).make_scheduler(sim)
        sim._scheduler.close()
        sim.inject(MessageRecord(0, NEW_THREAD, "a"), t=0.0)
        assert sim.run().events_executed >= 1
        sim.shutdown()
