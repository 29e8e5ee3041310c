"""Lane state as the live code drives it: thread-id recycling by the
UDWeave dispatcher and the ``ir`` batch fold, and the drain loop's
busy-clock accounting."""

import pytest

from repro.apps import BFSApp, PageRankApp
from repro.graph import rmat
from repro.harness import bench_config
from repro.machine import MessageRecord, Simulator, bench_machine
from repro.machine.events import NEW_THREAD
from repro.udweave import UDThread, UpDownRuntime, event


def _runtime():
    """A one-node runtime with a thread that stays alive (``Keeper``) and
    one that terminates in its first event (``Temp``); both report their
    thread id to the host."""
    rt = UpDownRuntime(bench_machine(nodes=1))

    @rt.register
    class Keeper(UDThread):
        @event
        def hold(self, ctx):
            ctx.send_event(ctx.runtime.host_evw("tid"), ctx.tid)
            ctx.yield_()

    @rt.register
    class Temp(UDThread):
        @event
        def go(self, ctx):
            ctx.send_event(ctx.runtime.host_evw("tid"), ctx.tid)
            ctx.yield_terminate()

    return rt


def _tids(rt):
    return [m.operands[0] for m in rt.host_messages("tid")]


class TestThreadTable:
    def test_allocate_and_get(self):
        rt = _runtime()
        rt.start(0, "Keeper::hold")
        rt.run()
        (tid,) = _tids(rt)
        lane = rt.sim.lane(0)
        assert type(lane.threads[tid]).__name__ == "Keeper"
        assert len(lane.threads) == 1

    def test_deallocate_frees_and_recycles(self):
        rt = _runtime()
        rt.start(0, "Keeper::hold", t=0.0)
        rt.start(0, "Temp::go", t=100.0)
        rt.start(0, "Temp::go", t=200.0)
        rt.run()
        kept, freed, reused = _tids(rt)
        assert reused == freed != kept  # the terminated id came back
        lane = rt.sim.lane(0)
        assert list(lane.threads) == [kept]
        assert lane._free_tids == [freed]

    def test_tids_unique_among_live(self):
        rt = _runtime()
        for i in range(100):
            rt.start(0, "Keeper::hold", t=float(i))
        rt.run()
        assert len(set(_tids(rt))) == 100
        assert len(rt.sim.lane(0).threads) == 100

    def test_bounded_tids_under_churn(self):
        """Spawn→terminate cycles keep the TID space compact (the event
        word's thread field is only 16 bits)."""
        rt = _runtime()
        for i in range(2_000):
            rt.start(0, "Temp::go", t=float(i))
        rt.run()
        lane = rt.sim.lane(0)
        assert set(_tids(rt)) == {0}
        assert lane._next_tid <= 1
        assert not lane.threads


def _thread_tables(app, batch_dispatch):
    rt = UpDownRuntime(bench_config(4, batch_dispatch=batch_dispatch))
    graph = rmat(8, seed=7)
    if app == "bfs":
        BFSApp(rt, graph, max_degree=16, block_size=4096).run(root=0)
    else:
        PageRankApp(rt, graph, max_degree=16, block_size=4096).run()
    tables = {
        nwid: (ln._next_tid, sorted(ln._free_tids), len(ln.threads))
        for nwid, ln in rt.sim._lanes.items()
    }
    return tables, rt.sim.stats.records_batched


class TestBatchFold:
    @pytest.mark.parametrize("app", ["pagerank", "bfs"])
    def test_fold_leaves_thread_tables_as_interpreted(self, app):
        """The batch executors fold each parked record's spawn/terminate
        into one free-list touch; every lane must end with the thread
        table the interpreter leaves."""
        ref, ref_batched = _thread_tables(app, batch_dispatch=False)
        out, batched = _thread_tables(app, batch_dispatch=True)
        assert ref_batched == 0 and batched > 0
        assert out == ref


class TestBusyClock:
    def _sim(self, cycles_by_label):
        def dispatch(sim, lane, record, start):
            return cycles_by_label[record.label]

        return Simulator(bench_machine(nodes=1), dispatcher=dispatch)

    def test_account_execution_advances_clock(self):
        sim = self._sim({"a": 5.0})
        sim.inject(MessageRecord(0, NEW_THREAD, "a"), t=10.0)
        sim.run()
        lane = sim.lane(0)
        assert lane.busy_until == 15.0
        assert lane.busy_cycles == 5.0
        assert lane.events_executed == 1

    def test_busy_cycles_accumulate(self):
        sim = self._sim({"a": 3.0, "b": 4.0})
        sim.inject(MessageRecord(0, NEW_THREAD, "a"), t=0.0)
        sim.inject(MessageRecord(0, NEW_THREAD, "b"), t=3.0)
        sim.run()
        lane = sim.lane(0)
        assert lane.busy_cycles == 7.0
        assert lane.busy_until == 7.0
        assert lane.events_executed == 2
