"""Bit-identical parity of conservative parallel runs vs sequential.

The hard guarantee of ``repro.machine.parallel``: a sharded run
(``shards=N``) produces *exactly* the sequential results — the same
:func:`repro.harness.fingerprint` and, when recording, the same
flight-recorder telemetry.  Plain sharded, batched, faulted and stepped
drains of every app are drawn by ``test_mode_lattice.py``; this file
keeps what the lattice does not assert: plan verdicts and drain counts
of stepped drains, merged recorders, multi-drain workflows,
registration between drains and the window metrics.
"""

import json
import warnings

import pytest

from repro.apps import BFSApp, PageRankApp
from repro.graph import rmat
from repro.harness import bench_config, fingerprint
from repro.observe import make_recorder
from repro.udweave import UpDownRuntime

GRAPH = rmat(8, seed=7)
BLOCK = 4096
NODES = 4


def _run_pr(shards=1, record=None, **rt_kw):
    rt = UpDownRuntime(
        bench_config(NODES),
        shards=shards,
        recorder=make_recorder(record),
        **rt_kw,
    )
    app = PageRankApp(rt, GRAPH, max_degree=16, block_size=BLOCK)
    res = app.run(iterations=2, max_events=10_000_000)
    return rt, res


MODES = {
    "sequential": {},
    "shards2": dict(shards=2),
}
LOOKAHEAD = bench_config(NODES).conservative_lookahead_cycles


def _drive(app_name, step=None, budget=None, **rt_kw):
    """The app's own run, its one drain whole (``step=None``) or cut into
    ``run(until=)`` steps; ``drains`` counts the bounded drains that
    reported not-quiesced before the one that did."""
    rt = UpDownRuntime(bench_config(NODES), **rt_kw)
    drains = 0

    def stepped(max_events=None):
        nonlocal drains
        until = step
        while not (stats := rt.sim.run(max_events=budget, until=until)).quiesced:
            drains += 1
            until += step
        return stats

    if step is not None:
        rt.run = stepped
    if app_name == "pagerank":
        app = PageRankApp(rt, GRAPH, max_degree=16, block_size=BLOCK)
        result = app.run(iterations=2, max_events=budget).ranks
    else:
        app = BFSApp(rt, GRAPH, max_degree=16, block_size=BLOCK)
        result = app.run(root=0, max_events=budget).parents
    return {
        "fingerprint": fingerprint(rt.sim, result),
        "drains": drains,
        "reasons": {
            label: row["reason"]
            for label, row in rt.sim.batch_report()["labels"].items()
        },
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
        budget = whole["fingerprint"]["model"]["events_executed"] // 2
        stepped = _drive(app_name, step, budget=budget, **MODES[mode])
        assert stepped["fingerprint"] == whole["fingerprint"]
        # a drain that leaves anything queued — in a shard heap or as
        # host mail due at or after the bound — says so: every mode
        # reports quiescence on the step sequential does
        assert stepped["drains"] == _drive(app_name, step)["drains"] > 0
        # every step, sharded or not, parks and batches
        assert set(stepped["reasons"].values()) == {None}
        assert stepped["batched"] > 0

    def test_a_step_that_outruns_its_budget_still_raises(self):
        from repro.machine import SimulationError

        with pytest.raises(SimulationError, match="max_events"):
            _drive("pagerank", 5_000.0, budget=50, shards=2)


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

        def hist(h):
            return dict(h.buckets), h.count, h.total, h.max

        # every per-node channel store, and the machine-wide waits derived
        # from them, match exactly — totals included, so the machine-wide
        # sums cannot depend on which shard recorded a sample first
        for family in ("inj_by_node", "dram_by_node"):
            seq_by, par_by = (getattr(r.recorder, family) for r in (seq, par))
            assert sorted(par_by) == sorted(seq_by)
            for node, stats in seq_by.items():
                merged = par_by[node]
                assert merged.bytes == stats.bytes
                assert merged.occupancy_sum == stats.occupancy_sum
                assert hist(merged.wait_hist) == hist(stats.wait_hist)
        for family in ("inj_wait", "dram_wait"):
            seq_h, par_h = (getattr(r.recorder, family) for r in (seq, par))
            assert seq_h.count > 0
            assert hist(par_h) == hist(seq_h)
        # message latencies are stored per source node and merged in
        # node order, so their totals are shard-invariant too
        par_latency = par.recorder.msg_latency
        for kind, latency in seq.recorder.msg_latency.items():
            assert hist(par_latency[kind]) == hist(latency)
        assert seq.recorder.msg_latency["remote"].count > 0


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
        return fingerprint(rt.sim)

    def test_registration_between_drains_runs(self):
        sharded = self._two_phases(shards=2)
        assert [label for _t, label, _ops in sharded["mailbox"]] == [
            "ping", "pong",
        ]
        assert sharded == self._two_phases(shards=1)


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
        assert fingerprint(old.sim, old_res.ranks) == fingerprint(
            new.sim, new_res.ranks
        )
