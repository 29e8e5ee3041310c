"""A parked record carries only the operand slots its executor reads.

Every record a batch executor receives is logged on small BFS and
PageRank drains, sequential and sharded.  BFS's visited arm reads no
operand, so its records park no payload and its executor is handed no
payload column; PageRank's ``CC_ADD`` reads the
key and the delta, so its records park as ``(key, delta)`` — per lane,
in order, exactly the operands the interpreter hands the reduce body.
A projection that drops a slot the executor reads must not get past
validation: the plan refuses, and the run equals the interpreted one.
"""

from collections import defaultdict

import pytest

from repro.apps import BFSApp, PageRankApp
from repro.apps.pagerank import PRReduceTask
from repro.graph import rmat
from repro.harness import bench_config, fingerprint
from repro.udweave import UpDownRuntime
from repro.udweave import ir
from repro.udweave.context import LaneContext

GRAPH = rmat(8, seed=7)
BLOCK = 4096
NODES = 4
PR_LABEL = "PRReduceTask::__reduce_entry__"


def _pagerank(shards=1, batch=True):
    rt = UpDownRuntime(
        bench_config(NODES, batch_dispatch=batch), shards=shards
    )
    app = PageRankApp(rt, GRAPH, max_degree=16, block_size=BLOCK)
    ranks = app.run(iterations=2, max_events=10_000_000).ranks
    return rt, ranks


def _bfs(shards=1):
    rt = UpDownRuntime(bench_config(NODES), shards=shards)
    app = BFSApp(rt, GRAPH, max_degree=16, block_size=BLOCK)
    app.run(root=0, max_events=10_000_000)
    return rt


@pytest.fixture
def executed(monkeypatch):
    """``{label: {nwid: [payload, ...]}}`` of every record a batch
    executor runs on a simulated lane (validation's scratch lanes,
    ``network_id`` -1, are left out); ``None`` for a record handed no
    payload column."""
    log = defaultdict(lambda: defaultdict(list))
    compile_batch_fn = ir._compile_batch_fn

    def spy(plan, costs, lane_span=None):
        batch_fn = compile_batch_fn(plan, costs, lane_span)

        def logged(ln, times, payloads, lo, hi):
            if ln.network_id >= 0:
                log[plan.label][ln.network_id] += (
                    [None] * (hi - lo) if payloads is None
                    else payloads[lo:hi]
                )
            return batch_fn(ln, times, payloads, lo, hi)

        return logged

    monkeypatch.setattr(ir, "_compile_batch_fn", spy)
    return log


@pytest.mark.parametrize("shards", [1, 2])
def test_bfs_parks_empty_payloads(executed, shards):
    rt = _bfs(shards)
    (runs,) = executed.values()
    payloads = [p for run in runs.values() for p in run]
    assert len(payloads) == rt.sim.stats.records_batched > 0
    # the hit arm reads no operand: its executor gets no payload column
    assert set(payloads) == {None}


@pytest.mark.parametrize("shards", [1, 2])
def test_pagerank_parks_key_and_delta(executed, shards, monkeypatch):
    rt, _ = _pagerank(shards)
    assert rt.sim.batch_report()["labels"][PR_LABEL]["reason"] is None
    batched = dict(executed[PR_LABEL])
    assert sum(map(len, batched.values())) == rt.sim.stats.records_batched

    # the interpreted reference: what each reduce body is handed, per lane
    interpreted = defaultdict(list)
    kv_reduce = PRReduceTask.kv_reduce

    def logged(self, ctx, key, delta):
        if ctx.__class__ is LaneContext and ctx.lane.network_id >= 0:
            interpreted[ctx.lane.network_id].append((key, delta))
        return kv_reduce(self, ctx, key, delta)

    monkeypatch.setattr(PRReduceTask, "kv_reduce", logged)
    _pagerank(shards, batch=False)
    assert batched == dict(interpreted)


def test_a_projection_missing_a_read_slot_fails_validation(monkeypatch):
    compile_emit = ir._compile_emit

    def drop_delta(plan):
        project, guard = compile_emit(plan)
        if project is None:
            return project, guard
        return (lambda key, values: project(key, values)[:-1]), guard

    monkeypatch.setattr(ir, "_compile_emit", drop_delta)
    rt, ranks = _pagerank()
    row = rt.sim.batch_report()["labels"][PR_LABEL]
    assert row["reason"] == "validation against interpreted semantics failed"
    assert rt.sim.stats.records_batched == 0
    monkeypatch.undo()
    ref, ref_ranks = _pagerank(batch=False)
    assert fingerprint(rt.sim, ranks) == fingerprint(ref.sim, ref_ranks)
