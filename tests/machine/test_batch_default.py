"""Batched dispatch as the default path: BFS's once-guard, budgeted
drains, and the reasons report.

``tests/machine/test_batch_dispatch.py`` pins PageRank (a plan without a
guard) off/on across every drain.  This file pins what the default adds:
BFS parks its "already visited" arm behind the write-once guard, a drain
with an event budget stays armed, and ``Simulator.batch_report`` says
why whenever a record was *not* batched.  The reference in every
comparison is ``batch_dispatch=False`` — the interpreter.
"""

import pytest

from repro.apps import BFSApp, PageRankApp
from repro.graph import rmat
from repro.harness import bench_config
from repro.kvmsr import KVMSRJob, MapTask, RangeInput, ReduceTask
from repro.machine import SimulationError
from repro.udweave import UpDownRuntime

GRAPH = rmat(8, seed=7)
BLOCK = 4096
NODES = 4


def _conserved(stats):
    assert (
        stats.records_batched + stats.events_interpreted
        == stats.events_executed
    )


def _outcome(rt, *result):
    stats = rt.sim.stats
    _conserved(stats)
    out = {
        "model": stats.model_snapshot(),
        "mailbox": [
            (t, rec.label, rec.operands) for t, rec in rt.sim.host_inbox
        ],
        "result": [list(r) for r in result],
        "busy": dict(stats.busy_cycles_by_lane),
    }
    return out, stats.records_batched, rt.sim.batch_report()


def _run_bfs(batch=True, step=None, faults=False, **rt_kw):
    if faults:
        from repro.faults import FaultPlan

        rt_kw.update(faults=FaultPlan(seed=5, drop_rate=0.02), reliable=True)
    rt = UpDownRuntime(bench_config(NODES, batch_dispatch=batch), **rt_kw)
    app = BFSApp(rt, GRAPH, block_size=BLOCK)
    if step is None:
        app.run(root=0, max_events=10_000_000)
    else:
        # BFSApp.run, with the one drain cut into run(until=) steps
        app._seed(0)
        rt.start(
            app.job.master_lane, "BFSDriver::start", app.job.job_id,
            cont=rt.host_evw("bfs_done"),
        )
        t = step
        while not rt.sim.run(until=t).quiesced:
            t += step
    return _outcome(rt, app.dist_region.data, app.parent_region.data)


class TestBFSParity:
    """Default vs interpreter reference, drain by drain."""

    def test_sequential_default_batches_the_visited_arm(self):
        ref, ref_batched, _ = _run_bfs(batch=False)
        out, batched, report = _run_bfs()
        assert out == ref
        assert ref_batched == 0 and batched > 0
        row = report["labels"]["BFSReduce::__reduce_entry__"]
        assert row["declared"] and row["lowered"] and row["reason"] is None
        assert row["parked"] == batched
        # first visits (and tuples racing one) ride the heap as before
        assert row["guard_declined"] > 0
        assert report["drains"] == {"armed": 1}

    @pytest.mark.parametrize("step", [777.0, 5_000.0])
    def test_until_stepping_stays_armed(self, step):
        ref, _, _ = _run_bfs(batch=False)
        out, batched, report = _run_bfs(step=step)
        assert out == ref
        assert batched > 0
        assert set(report["drains"]) == {"armed"}

    def test_sharded_drains_park_identically(self):
        """Shard windows arm parking too: the once-guard may read a lane
        another shard owns (monotone flag), so only the host-split
        tallies may differ from the sequential run."""
        ref, _, _ = _run_bfs(batch=False)
        out, batched, report = _run_bfs(shards=2)
        assert out == ref
        assert batched > 0
        assert report["drains"] == {"armed": 1}
        row = report["labels"]["BFSReduce::__reduce_entry__"]
        assert row["lowered"] and row["parked"] == batched

    @pytest.mark.parametrize(
        "rt_kw,gate", [(dict(faults=True), "faults")], ids=["faulted"],
    )
    def test_disarmed_drains_interpret_identically(self, rt_kw, gate):
        ref, _, _ = _run_bfs(batch=False, **rt_kw)
        out, batched, report = _run_bfs(**rt_kw)
        assert out == ref
        assert batched == 0
        assert set(report["drains"]) == {gate}
        assert report["labels"] == {}  # nothing was ever lowered


class _RaceMap(MapTask):
    """Every map task emits two tuples for ``key % 3`` back to back."""

    def kv_map(self, ctx, key):
        self.kv_emit(ctx, key % 3, key)
        self.kv_emit(ctx, key % 3, -key)
        self.kv_map_return(ctx)


class _OnceReduce(ReduceTask):
    intrinsic_only = True

    def kv_reduce(self, ctx, key, value):
        if ctx.sp_once(("seen", key)):
            ctx.work(1)
            self.kv_reduce_return(ctx)
            return
        ctx.work(40)  # the first visit is the expensive arm
        self.kv_reduce_return(ctx)


class TestGuardDeclined:
    def test_flag_set_between_emit_and_delivery_is_interpreted(self):
        """The first tasks emit before any tuple for their key has been
        *delivered*: the flag is unset at emit, so the guard declines
        every one of them — yet only one per key can take the miss arm.
        The rest find the flag set by the time they are delivered and
        run the visited arm on the interpreter, bit-identically."""
        n_keys = 90
        outs = {}
        for batch in (False, True):
            rt = UpDownRuntime(bench_config(2, batch_dispatch=batch))
            KVMSRJob(
                rt, _RaceMap, RangeInput(n_keys), reduce_cls=_OnceReduce,
            ).launch()
            rt.run(max_events=1_000_000)
            outs[batch] = _outcome(rt)
        (ref, ref_batched, _), (out, batched, report) = outs[False], outs[True]
        assert out == ref
        row = report["labels"]["_OnceReduce::__reduce_entry__"]
        assert row["parked"] == batched > 0 == ref_batched
        assert row["parked"] + row["guard_declined"] == 2 * n_keys
        # three keys ⇒ three miss arms; every other declined tuple was
        # overtaken by its flag between emit and delivery
        assert row["guard_declined"] > 3


def _pagerank_runtime(batch=True, shards=1):
    rt = UpDownRuntime(
        bench_config(NODES, batch_dispatch=batch), shards=shards
    )
    app = PageRankApp(rt, GRAPH, block_size=BLOCK)
    return rt, app


class TestBudgetedDrains:
    """``max_events`` no longer disarms parking; batched records count
    toward it when they flush."""

    @pytest.fixture(scope="class")
    def whole(self):
        rt, app = _pagerank_runtime()
        app.run(iterations=2)
        out = _outcome(rt, app.pr_region.data)
        return out

    def test_budget_above_the_event_count_does_not_raise(self, whole):
        events = whole[0]["model"]["events_executed"]
        rt, app = _pagerank_runtime()
        # the guard trips on reaching the budget, as it always has —
        # so "enough" is one more than the run executes
        app.run(iterations=2, max_events=events + 1)
        out, batched, report = _outcome(rt, app.pr_region.data)
        assert out == whole[0]
        assert batched == whole[1] > 0
        assert report["drains"] == {"armed": 1}

    @pytest.mark.parametrize("short_by", [1, 300, 9_000])
    def test_abort_then_run_equals_the_whole_run(self, whole, short_by):
        """Budgets just below the event count sit above everything the
        interpreter executes in this run (most events are batched
        records), so they are only reachable because flushes count; the
        deepest cut aborts on interpreted events alone."""
        events = whole[0]["model"]["events_executed"]
        interpreted = events - whole[1]
        assert events - 300 > interpreted > events - 9_000
        rt, app = _pagerank_runtime()
        with pytest.raises(SimulationError, match="max_events"):
            app.run(iterations=2, max_events=events - short_by)
        rt.run()
        out, batched, _ = _outcome(rt, app.pr_region.data)
        assert out == whole[0]
        assert batched > 0
        assert rt.sim.stats.quiesced

    @pytest.mark.parametrize("short_by", [1, 300, 9_000])
    @pytest.mark.parametrize("shards", [2, 4])
    def test_sharded_abort_then_run_equals_the_whole_run(
        self, whole, shards, short_by
    ):
        """The window loop charges each window's events (flushes
        included) against the budget; an abort leaves records parked on
        any shard's lanes, and the next ``run()`` picks them up as that
        shard's next events."""
        events = whole[0]["model"]["events_executed"]
        rt, app = _pagerank_runtime(shards=shards)
        with pytest.raises(SimulationError, match="max_events"):
            app.run(iterations=2, max_events=events - short_by)
        rt.run()
        out, batched, report = _outcome(rt, app.pr_region.data)
        assert out == whole[0]
        assert batched > 0
        assert set(report["drains"]) == {"armed"}
        assert rt.sim.stats.quiesced

    def test_budgeted_default_matches_the_interpreter(self, whole):
        rt, app = _pagerank_runtime(batch=False)
        app.run(iterations=2, max_events=10_000_000)
        ref, ref_batched, report = _outcome(rt, app.pr_region.data)
        assert ref == whole[0]
        assert ref_batched == 0
        assert report == {
            "labels": {}, "drains": {"batch_dispatch=False": 1},
        }


class TestHarnessRunnersReachTheBatchCore:
    """Every runner passes ``max_events``; before budgeted drains stayed
    armed that alone kept the sweeps and examples on the interpreter."""

    def test_run_pagerank_and_run_bfs_batch_by_default(self):
        from repro.harness import run_bfs, run_pagerank

        for runner, kw, label in (
            (run_pagerank, dict(iterations=2), "PRReduceTask"),
            (run_bfs, dict(root=0), "BFSReduce"),
        ):
            rec = runner(GRAPH, 4, **kw)
            ref = runner(GRAPH, 4, batch_dispatch=False, **kw)
            assert rec.extra["stats"].records_batched > 0
            assert ref.extra["stats"].records_batched == 0
            assert (
                rec.extra["stats"].final_tick
                == ref.extra["stats"].final_tick
            )
            assert rec.seconds == ref.seconds
            row = rec.extra["batch"]["labels"][f"{label}::__reduce_entry__"]
            assert row["lowered"]
            assert row["parked"] == rec.extra["stats"].records_batched
            assert ref.extra["batch"]["drains"] == {
                "batch_dispatch=False": 1
            }
