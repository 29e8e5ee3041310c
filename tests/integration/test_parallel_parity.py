"""Bit-identical parity of conservative parallel runs vs sequential.

The hard guarantee of ``repro.machine.parallel``: a sharded run
(``shards=N``) produces *exactly* the sequential results: the same model
fingerprint (every always-on scalar counter including ``final_tick``,
minus the host-side ``HOST_SPLIT_KEYS`` — both arm batched dispatch,
but a once-guard may read a lane another shard has run ahead, so the
batched/interpreted split can differ), the same host mailbox in the
same order, the same functional outputs, and (when recording) the same
flight-recorder telemetry.

Sits alongside ``test_determinism_parity.py``: that file pins run-to-run
and observation-tier determinism; this one pins shard-count independence.
"""

import json
import warnings

import pytest

from repro.apps import BFSApp, PageRankApp
from repro.graph import rmat
from repro.harness import bench_config
from repro.udweave import UpDownRuntime

GRAPH = rmat(8, seed=7)
BLOCK = 4096
NODES = 4


def _mailbox(rt):
    """Host inbox as comparable values (delivery time, label, operands)."""
    return [(t, rec.label, rec.operands) for t, rec in rt.sim.host_inbox]


def _model(rt):
    """The model fingerprint; the split counters it drops must still
    partition the events it keeps."""
    stats = rt.sim.stats
    assert (
        stats.records_batched + stats.events_interpreted
        == stats.events_executed
    )
    return stats.model_snapshot()


def _run_pr(shards=1, record=None, **rt_kw):
    from repro.observe import make_recorder

    rt = UpDownRuntime(
        bench_config(NODES),
        shards=shards,
        recorder=make_recorder(record),
        **rt_kw,
    )
    app = PageRankApp(rt, GRAPH, max_degree=16, block_size=BLOCK)
    res = app.run(iterations=2, max_events=10_000_000)
    return rt, res


def _run_bfs(shards=1):
    rt = UpDownRuntime(bench_config(NODES), shards=shards)
    app = BFSApp(rt, GRAPH, max_degree=16, block_size=BLOCK)
    res = app.run(root=0, max_events=10_000_000)
    return rt, res


class TestInProcessShards:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_pagerank_fingerprint_identical(self, shards):
        seq, seq_res = _run_pr()
        shd, shd_res = _run_pr(shards=shards)
        assert _model(shd) == _model(seq)
        assert _mailbox(shd) == _mailbox(seq)
        # functional output too, not just timing
        assert list(shd_res.ranks) == list(seq_res.ranks)

    @pytest.mark.parametrize("shards", [2, 4])
    def test_bfs_fingerprint_identical(self, shards):
        seq, seq_res = _run_bfs()
        shd, shd_res = _run_bfs(shards=shards)
        assert _model(shd) == _model(seq)
        assert _mailbox(shd) == _mailbox(seq)
        assert list(shd_res.parents) == list(seq_res.parents)


MODES = {
    "sequential": {},
    "shards2": dict(shards=2),
}
LOOKAHEAD = bench_config(NODES).conservative_lookahead_cycles


def _launch(app_name, **rt_kw):
    """The app's own ``run()`` up to, not including, its one drain."""
    rt = UpDownRuntime(bench_config(NODES), **rt_kw)
    if app_name == "pagerank":
        app = PageRankApp(rt, GRAPH, max_degree=16, block_size=BLOCK)
        rt.start(
            app.push_job.master_lane, "PRDriver::start", app.push_job.job_id,
            2, cont=rt.host_evw("pagerank_done"),
        )
        return rt, app.pr_region
    app = BFSApp(rt, GRAPH, max_degree=16, block_size=BLOCK)
    app._seed(0)
    rt.start(
        app.job.master_lane, "BFSDriver::start", app.job.job_id,
        cont=rt.host_evw("bfs_done"),
    )
    return rt, app.parent_region


def _drive(app_name, step=None, budget=None, **rt_kw):
    """Outcome of the app's drain, whole (``step=None``) or cut into
    ``run(until=)`` steps; ``drains`` counts the bounded drains that
    reported not-quiesced before the one that did."""
    rt, region = _launch(app_name, **rt_kw)
    drains = 0
    if step is None:
        assert rt.run(max_events=budget).quiesced
    else:
        until = step
        while not rt.sim.run(max_events=budget, until=until).quiesced:
            drains += 1
            until += step
    return {
        "model": _model(rt),
        "mailbox": _mailbox(rt),
        "busy": dict(rt.sim.stats.busy_cycles_by_lane),
        "result": list(region.data),
        "drains": drains,
        "gates": set(rt.sim.batch_report()["drains"]),
        "batched": rt.sim.stats.records_batched,
    }


class TestSteppedDrains:
    """``run(until=)`` is one clamp in one window loop: PageRank and BFS
    cut into steps narrower and wider than the lookahead, in every mode,
    equal the whole sequential drain — fingerprint, host mailbox,
    per-lane busy cycles, results — and report quiescence on the same
    step."""

    @pytest.mark.parametrize("mode", list(MODES))
    @pytest.mark.parametrize("step", [LOOKAHEAD - 350.0, 5_000.0])
    @pytest.mark.parametrize("app_name", ["pagerank", "bfs"])
    def test_stepping_is_invisible_in_every_mode(self, app_name, step, mode):
        whole = _drive(app_name)
        # max_events stays per call: no single step needs half the
        # run's events, so a per-drain budget of half never trips
        budget = whole["model"]["events_executed"] // 2
        stepped = _drive(app_name, step, budget=budget, **MODES[mode])
        for key in ("model", "mailbox", "busy", "result"):
            assert stepped[key] == whole[key], key
        # a drain that leaves anything queued — in a shard heap or as
        # host mail due at or after the bound — says so: every mode
        # reports quiescence on the step sequential does
        assert stepped["drains"] == _drive(app_name, step)["drains"] > 0
        # every step, sharded or not, parks and batches
        assert stepped["gates"] == {"armed"}
        assert stepped["batched"] > 0

    def test_a_step_that_outruns_its_budget_still_raises(self):
        from repro.machine import SimulationError

        with pytest.raises(SimulationError, match="max_events"):
            _drive("pagerank", 5_000.0, budget=50, shards=2)


class TestShardedFeatureMatrix:
    """Sharded parity across the machine-model feature matrix: batched
    dispatch and injected faults with reliable delivery (fault-delayed
    ``rdt`` records crossing shards) must each stay bit-exact."""

    def _run(self, shards, batch_dispatch=False, faulty=False):
        from repro.faults import FaultPlan

        rt = UpDownRuntime(
            bench_config(NODES, batch_dispatch=batch_dispatch),
            faults=FaultPlan(seed=11, drop_rate=0.01) if faulty else None,
            reliable=faulty,
            shards=shards,
        )
        app = PageRankApp(rt, GRAPH, max_degree=16, block_size=BLOCK)
        res = app.run(iterations=2, max_events=10_000_000)
        return _model(rt), list(res.ranks)

    @pytest.mark.parametrize(
        "knobs",
        [
            dict(batch_dispatch=True),
            dict(faulty=True),
            dict(batch_dispatch=True, faulty=True),
        ],
        ids=["batch_dispatch", "faulted", "all_on"],
    )
    def test_feature_matrix_fingerprint_identical(self, knobs):
        seq_fp, seq_ranks = self._run(shards=1, **knobs)
        par_fp, par_ranks = self._run(shards=2, **knobs)
        assert par_fp == seq_fp
        assert par_ranks == seq_ranks


class TestRecordedParallelRun:
    """``record=`` under ``shards=2``: every shard records into the one
    recorder the caller holds, and its telemetry exports as a single
    Chrome trace holding exactly the sequential events."""

    def test_merged_recorder_exports_one_trace(self, tmp_path):
        from repro.observe.trace import chrome_trace

        seq, _ = _run_pr(record="full")
        par, _ = _run_pr(shards=2, record="full")
        # recorder identity is stable: the object handed in at build
        # time is the one holding the telemetry after the run
        assert par.recorder is par.sim.recorder
        seq_trace = chrome_trace(seq.recorder, seq.config.clock_hz, {})
        par_trace = chrome_trace(par.recorder, par.config.clock_hz, {})
        out = tmp_path / "parallel.trace.json"
        out.write_text(json.dumps(par_trace))
        assert json.loads(out.read_text())["traceEvents"]
        # channel telemetry is deterministic (samples are taken at
        # channel-admission points, which parity fixes), so the sharded
        # trace holds exactly the sequential events — order-insensitive,
        # because sequential emission order is pop order while a window
        # records shard after shard (Chrome's JSON is order-independent)
        def canon(trace):
            return sorted(
                json.dumps(e, sort_keys=True) for e in trace["traceEvents"]
            )

        assert canon(par_trace) == canon(seq_trace)

    def test_histogram_tier_merges(self):
        seq, _ = _run_pr(record="histograms")
        par, _ = _run_pr(shards=2, record="histograms")
        for node, stats in seq.recorder.inj_by_node.items():
            merged = par.recorder.inj_by_node[node]
            assert merged.admits == stats.admits
            assert merged.bytes == stats.bytes
            assert merged.wait_sum == stats.wait_sum
        for kind, hist in seq.recorder.msg_latency.items():
            assert par.recorder.msg_latency[kind].count == hist.count
        assert par.recorder.inj_wait.count == seq.recorder.inj_wait.count


class TestMultiDrainSharded:
    """Apps that call run() more than once, set up device state between
    phases, and read results through shared payload objects — the full
    AGILE workflow.  In-process sharding shares the host's Python heap,
    so every phase-boundary idiom works and parity must hold end to end.
    """

    def test_workflow_parity_across_phases(self):
        from repro.apps import Pattern, make_workload
        from repro.workflows import WF2Workflow

        def run(shards=1):
            wf = WF2Workflow(
                bench_config(2),
                [Pattern(0, (0, 1))],
                seeds=[0, 1],
                hops=2,
                shards=shards,
            )
            return wf.run(
                make_workload(60, n_edge_types=2, seed=3), gap_cycles=500.0
            )

        seq = run()
        shd = run(shards=2)
        assert shd.records == seq.records
        assert shd.alerts == seq.alerts
        assert shd.reached == seq.reached
        assert shd.phase_seconds == seq.phase_seconds


class TestSetupBetweenDrains:
    """Shards share the host heap: a thread class registered between two
    drains is simply there for the second one, as it is sequentially."""

    def _two_phases(self, shards):
        from repro.udweave import UDThread, event

        rt = UpDownRuntime(bench_config(2), shards=shards)

        @rt.register
        class Ping(UDThread):
            @event
            def go(self, ctx):
                ctx.send_reply(ctx.lane.network_id)
                ctx.yield_terminate()

        rt.start(0, "Ping::go", cont=rt.host_evw("ping"))
        rt.run()

        @rt.register
        class Pong(UDThread):
            @event
            def go(self, ctx):
                ctx.send_reply(ctx.lane.network_id)
                ctx.yield_terminate()

        # node 1's first lane: the second phase runs on the other shard
        rt.start(
            rt.config.lanes_per_node, "Pong::go", cont=rt.host_evw("pong")
        )
        stats = rt.run()
        assert stats.quiesced
        return _model(rt), _mailbox(rt)

    def test_registration_between_drains_runs(self):
        model, mailbox = self._two_phases(shards=2)
        assert [label for _t, label, _ops in mailbox] == ["ping", "pong"]
        assert (model, mailbox) == self._two_phases(shards=1)


class TestWindowMetrics:
    """``Simulator.parallel_metrics()`` describes the one window loop."""

    def test_window_count_is_reported_and_deterministic(self):
        seq, _ = _run_pr()
        assert seq.sim.parallel_metrics() is None
        first, _ = _run_pr(shards=2)
        again, _ = _run_pr(shards=2)
        windows = first.sim.parallel_metrics()
        assert set(windows) == {"windows"} and windows["windows"] > 0
        assert again.sim.parallel_metrics() == windows


class TestDeprecatedParallelSpelling:
    """``UpDownRuntime(parallel=)`` survives only as an ignored keyword:
    one ``DeprecationWarning``, then exactly the ``shards=2`` run."""

    def test_parallel_keyword_warns_once_and_changes_nothing(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            old, old_res = _run_pr(shards=2, parallel=True)
        assert [w.category for w in caught] == [DeprecationWarning]
        assert "ignored" in str(caught[0].message)
        new, new_res = _run_pr(shards=2)
        assert _model(old) == _model(new)
        assert _mailbox(old) == _mailbox(new)
        assert old.sim.stats.busy_cycles_by_lane == (
            new.sim.stats.busy_cycles_by_lane
        )
        assert list(old_res.ranks) == list(new_res.ranks)
