"""Batched dispatch as the default path: BFS's once-guard, budgeted,
observed and message-faulted drains, and the reasons report.

``tests/integration/test_mode_lattice.py`` draws batch on/off against
the interpreter across every mode.  This file pins what equality alone
does not show: BFS parks its "already visited" arm behind the
write-once guard, a drain with an event budget, a recorder tier or
message faults still parks, and ``Simulator.batch_report`` says why
whenever a record was *not* batched.  The reference in every comparison
is ``batch_dispatch=False`` — the interpreter.
"""

import json
import math

import pytest

from repro.apps import BFSApp, PageRankApp, TriangleCountApp
from repro.faults import FaultPlan
from repro.graph import rmat
from repro.harness import bench_config, event_report, fingerprint
from repro.kvmsr import KVMSRJob, MapTask, RangeInput, ReduceTask
from repro.machine import SimulationError
from repro.observe import chrome_trace, make_recorder
from repro.udweave import UpDownRuntime

GRAPH = rmat(8, seed=7)
BLOCK = 4096
NODES = 4
#: message faults alone (delays reorder deliveries): plans still park
DELAYS = FaultPlan(seed=5, delay_rate=0.3, delay_cycles=700.0)
PR_LABEL = "PRReduceTask::__reduce_entry__"
BFS_LABEL = "BFSReduce::__reduce_entry__"
LABEL_OF = {"pagerank": PR_LABEL, "bfs": BFS_LABEL}


def _reasons(report):
    """``{label: refusal reason}`` (``None`` where the plan parks)."""
    return {label: row["reason"] for label, row in report["labels"].items()}


def _fingerprinted(rt, *result):
    """``(fingerprint, records batched, batch report)`` of one run."""
    sim = rt.sim
    return (
        fingerprint(sim, result), sim.stats.records_batched, sim.batch_report()
    )


def _bfs_drained(batch=True, **rt_kw):
    """``(runtime, result arrays)`` after one whole BFS run."""
    rt = UpDownRuntime(bench_config(NODES, batch_dispatch=batch), **rt_kw)
    app = BFSApp(rt, GRAPH, block_size=BLOCK)
    app.run(root=0, max_events=10_000_000)
    return rt, (app.dist_region.data, app.parent_region.data)


def _run_bfs(batch=True, **rt_kw):
    rt, result = _bfs_drained(batch, **rt_kw)
    return _fingerprinted(rt, *result)


class TestBFSParity:
    """Default vs interpreter reference, drain by drain."""

    def test_sequential_default_batches_the_visited_arm(self):
        ref, ref_batched, _ = _run_bfs(batch=False)
        out, batched, report = _run_bfs()
        assert out == ref
        assert ref_batched == 0 and batched > 0
        row = report["labels"][BFS_LABEL]
        assert row["declared"] and row["lowered"] and row["reason"] is None
        assert row["parked"] == batched
        # first visits (and tuples racing one) ride the heap as before
        assert row["guard_declined"] > 0

    def test_sharded_drains_park_identically(self):
        """Shard windows arm parking too: the once-guard may read a lane
        another shard owns (monotone flag), so only the host-split
        tallies may differ from the sequential run."""
        ref, _, _ = _run_bfs(batch=False)
        out, batched, report = _run_bfs(shards=2)
        assert out == ref
        assert batched > 0
        row = report["labels"][BFS_LABEL]
        assert row["lowered"] and row["parked"] == batched

    @pytest.mark.parametrize(
        "rt_kw,reason",
        [
            (
                dict(
                    faults=FaultPlan(seed=5, drop_rate=0.02), reliable=True
                ),
                "reliable transport: dedup and acks run at dispatch",
            ),
            (dict(faults=DELAYS), None),
            (
                dict(
                    faults=FaultPlan(
                        seed=5, lane_stall_rate=0.05, lane_stall_cycles=300.0
                    )
                ),
                "lane stalls act at dispatch, which the batch executors skip",
            ),
            (
                # finite, but after the run ends: nothing is dropped
                dict(faults=FaultPlan(fail_stop={1: 1e15})),
                "fail-stop acts at dispatch, which the batch executors skip",
            ),
            # an all-``inf`` fail-stop map never fails: no fail-stop
            (dict(faults=FaultPlan(fail_stop={1: math.inf})), None),
        ],
        ids=[
            "faulted", "message_faults_only", "lane_stalls",
            "fail_stop_late", "fail_stop_never",
        ],
    )
    def test_disarmed_drains_interpret_identically(self, rt_kw, reason):
        """Only the plan decides: message faults are drawn at issue for
        parked and sent records alike, so the plan parks under them; the
        transport and dispatch-time faults (lane stalls, a finite
        fail-stop tick) make it refuse before tracing, naming the cause,
        and every event is interpreted."""
        ref, _, _ = _run_bfs(batch=False, **rt_kw)
        out, batched, report = _run_bfs(**rt_kw)
        assert out == ref
        assert _reasons(report) == {BFS_LABEL: reason}
        if reason is None:
            assert batched > 0
        else:
            assert batched == 0
            assert report["labels"][BFS_LABEL]["declared"]


FAULT_GRAPH = rmat(8, seed=3)


def _run_delayed(app_name, batch):
    """One whole app run under ``DELAYS``, as ``_fingerprinted``."""
    rt = UpDownRuntime(
        bench_config(NODES, batch_dispatch=batch), faults=DELAYS
    )
    if app_name == "pagerank":
        result = [PageRankApp(rt, FAULT_GRAPH, block_size=BLOCK).run(
            iterations=2
        ).ranks]
    elif app_name == "bfs":
        app = BFSApp(rt, FAULT_GRAPH, block_size=BLOCK)
        app.run(root=0)
        result = [app.dist_region.data, app.parent_region.data]
    else:
        tc = TriangleCountApp(rt, FAULT_GRAPH, block_size=BLOCK).run()
        result = [tc.triangles]
    assert rt.sim.stats.faults_messages_delayed > 0
    return _fingerprinted(rt, *result)


class TestMessageFaultedDrains:
    """Message faults are drawn by ``Simulator.issue`` in scalar order,
    for a parked record exactly as for a sent one, so a drain whose
    fault plan only perturbs messages still parks and equals the
    interpreter."""

    @pytest.mark.parametrize("app_name", ["pagerank", "bfs", "tc"])
    def test_delays_stay_armed_and_match_the_interpreter(self, app_name):
        ref, ref_batched, _ = _run_delayed(app_name, batch=False)
        out, batched, report = _run_delayed(app_name, batch=True)
        assert out == ref
        assert ref_batched == 0
        if app_name == "tc":
            assert batched == 0  # TC's reduce is not declared batch-safe
            assert set(_reasons(report).values()) == {
                "not declared intrinsic_only"
            }
        else:
            assert batched > 0
            assert _reasons(report)[LABEL_OF[app_name]] is None


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
            outs[batch] = _fingerprinted(rt)
        (ref, ref_batched, _), (out, batched, report) = outs[False], outs[True]
        assert out == ref
        row = report["labels"]["_OnceReduce::__reduce_entry__"]
        assert row["parked"] == batched > 0 == ref_batched
        assert row["parked"] + row["guard_declined"] == 2 * n_keys
        # three keys ⇒ three miss arms; every other declined tuple was
        # overtaken by its flag between emit and delivery
        assert row["guard_declined"] > 3


def _pagerank_runtime(batch=True, shards=1, **rt_kw):
    rt = UpDownRuntime(
        bench_config(NODES, batch_dispatch=batch), shards=shards, **rt_kw
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
        return _fingerprinted(rt, app.pr_region.data)

    def test_budget_above_the_event_count_does_not_raise(self, whole):
        events = whole[0]["model"]["events_executed"]
        rt, app = _pagerank_runtime()
        # the guard trips on reaching the budget, as it always has —
        # so "enough" is one more than the run executes
        app.run(iterations=2, max_events=events + 1)
        out, batched, report = _fingerprinted(rt, app.pr_region.data)
        assert out == whole[0]
        assert batched == whole[1] > 0
        assert _reasons(report)[PR_LABEL] is None

    @pytest.mark.parametrize("short_by", [1, 300, 9_000])
    def test_abort_then_run_equals_the_whole_run(
        self, whole, short_by, shards=1
    ):
        """Budgets just below the event count sit above everything the
        interpreter executes in this run (most events are batched
        records), so they are only reachable because flushes count; the
        deepest cut aborts on interpreted events alone.  The window loop
        charges each window's events (flushes included) against the
        budget; an abort leaves records parked on any shard's lanes, and
        the next ``run()`` picks them up as that shard's next events."""
        events = whole[0]["model"]["events_executed"]
        interpreted = events - whole[1]
        assert events - 300 > interpreted > events - 9_000
        rt, app = _pagerank_runtime(shards=shards)
        with pytest.raises(SimulationError, match="max_events"):
            app.run(iterations=2, max_events=events - short_by)
        rt.run()
        out, batched, report = _fingerprinted(rt, app.pr_region.data)
        assert out == whole[0]
        assert batched > 0
        assert _reasons(report)[PR_LABEL] is None
        assert rt.sim.stats.quiesced

    @pytest.mark.parametrize("short_by", [1, 300, 9_000])
    @pytest.mark.parametrize("shards", [2, 4])
    def test_sharded_abort_then_run_equals_the_whole_run(
        self, whole, shards, short_by
    ):
        self.test_abort_then_run_equals_the_whole_run(whole, short_by, shards)

    def test_a_batch_amortizes_more_than_one_record(self):
        """A batch of N records counts N events, never 1 (the bench's
        events/sec would otherwise inflate itself)."""
        rt, app = _pagerank_runtime()
        app.run(iterations=2)
        stats = rt.sim.stats
        assert stats.records_batched / stats.batches_executed > 1.0

    def test_budgeted_default_matches_the_interpreter(self, whole):
        rt, app = _pagerank_runtime(batch=False)
        app.run(iterations=2, max_events=10_000_000)
        ref, ref_batched, report = _fingerprinted(rt, app.pr_region.data)
        assert ref == whole[0]
        assert ref_batched == 0
        assert report == {"labels": {}}  # nothing is ever lowered


def _recorded(rec):
    """The recorder's channel and message-latency summaries, exactly."""

    def hist(h):
        return dict(h.buckets), h.count, h.total, h.max

    def chans(by_node):
        return {
            node: (
                c.bytes, c.occupancy_sum, hist(c.wait_hist),
            )
            for node, c in by_node.items()
        }

    return {
        "inj_by_node": chans(rec.inj_by_node),
        "dram_by_node": chans(rec.dram_by_node),
        "inj_wait": hist(rec.inj_wait),
        "dram_wait": hist(rec.dram_wait),
        "msg_latency": {k: hist(h) for k, h in rec.msg_latency.items()},
    }


def _observed(app, batch, record, **rt_kw):
    """One whole BFS or PageRank run: ``_fingerprinted`` with the
    recorder's summaries in the fingerprint, plus the runtime."""
    recorder = make_recorder(record)
    if app == "bfs":
        rt, result = _bfs_drained(batch, recorder=recorder, **rt_kw)
    else:
        rt, pr = _pagerank_runtime(batch, recorder=recorder, **rt_kw)
        result = (pr.run(iterations=2).ranks,)
    out, batched, report = _fingerprinted(rt, *result)
    if recorder is not None:
        out["recorded"] = _recorded(recorder)
    return out, batched, report, rt


def _trace(rt):
    """The run's Chrome trace, its events as an order-free multiset."""
    trace = chrome_trace(rt.recorder, rt.config.clock_hz)
    events = trace.pop("traceEvents")
    return sorted(json.dumps(e, sort_keys=True) for e in events), trace


@pytest.mark.parametrize("app", ["pagerank", "bfs"])
class TestObservedDrains:
    """Channel recording prices a parked record through the same
    ``Network.deliver_time`` call ``send`` makes, at issue — so the
    samples land in scalar order.  Lane spans come from the batch
    executor, one per record, as the interpreter records one per event.
    The plan parks under either tier."""

    @pytest.mark.parametrize("record", ["histograms"])
    def test_observed_drains_stay_armed(self, app, record):
        ref, ref_batched, _, _ = _observed(app, False, record)
        out, batched, report, _ = _observed(app, True, record)
        assert out == ref
        assert ref_batched == 0 and batched > 0
        assert _reasons(report)[LABEL_OF[app]] is None
        assert out["recorded"]["inj_by_node"]  # the samples exist

    def test_lane_spans_batch_identically(self, app):
        ref, _, _, ref_rt = _observed(app, False, "full")
        out, batched, report, rt = _observed(app, True, "full")
        assert out == ref
        assert batched > 0 and _reasons(report)[LABEL_OF[app]] is None
        spans = rt.recorder.lane_spans
        assert len(spans) == out["model"]["events_executed"]
        assert event_report(rt.sim) == event_report(ref_rt.sim)
        # batched spans are recorded at flush time, so only the order of
        # the timeline's events may differ
        assert _trace(rt) == _trace(ref_rt)

    @pytest.mark.parametrize(
        "record,watchdog,shards",
        [("full", None, 2), (None, 1e6, 1), (None, 1e6, 2)],
        ids=["full-shards2", "watched", "watched-shards2"],
    )
    def test_spans_and_watchdog_stay_armed(
        self, app, record, watchdog, shards
    ):
        """A watchdog that does not fire and the ``full`` tier leave the
        plan parking, sharded too, and bit-identical — recorder summaries
        included — to the sequential interpreter."""
        ref, _, _, _ = _observed(app, False, record, watchdog_cycles=watchdog)
        out, batched, report, rt = _observed(
            app, True, record, shards=shards, watchdog_cycles=watchdog
        )
        assert out == ref
        assert batched > 0 and _reasons(report)[LABEL_OF[app]] is None
        if record == "full":
            spans = rt.recorder.lane_spans
            assert len(spans) == out["model"]["events_executed"]


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
            assert ref.extra["batch"] == {"labels": {}}
