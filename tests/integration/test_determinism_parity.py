"""Golden determinism parity for the hot-path overhaul.

The DES core guarantees bit-exact reproducibility: same program, same
seeds → identical final tick, identical scalar counters, identical host
mailbox.  These tests pin that guarantee run-to-run (two fresh machines,
same inputs).  That recording is observation only is pinned in
``tests/observe/test_exports.py``.
"""

import pytest

from repro.apps import BFSApp, PageRankApp, Pattern, make_workload
from repro.graph import rmat
from repro.harness import bench_config
from repro.udweave import UpDownRuntime
from repro.workflows import WF2Workflow

GRAPH = rmat(8, seed=7)
BLOCK = 4096


def _mailbox(rt):
    """Host inbox as comparable values (delivery time, label, operands)."""
    return [
        (t, rec.label, rec.operands) for t, rec in rt.sim.host_inbox
    ]


def _run_pr():
    rt = UpDownRuntime(bench_config(4))
    app = PageRankApp(rt, GRAPH, max_degree=16, block_size=BLOCK)
    app.run(iterations=2, max_events=10_000_000)
    return rt


def _run_bfs():
    rt = UpDownRuntime(bench_config(4))
    app = BFSApp(rt, GRAPH, max_degree=16, block_size=BLOCK)
    app.run(root=0, max_events=10_000_000)
    return rt


def _run_wf2():
    wf = WF2Workflow(
        bench_config(2), [Pattern(0, (0, 1))], seeds=[0, 1], hops=2
    )
    return wf.run(make_workload(60, n_edge_types=2, seed=3), gap_cycles=500.0)


class TestRunToRun:
    @pytest.mark.parametrize("runner", [_run_pr, _run_bfs])
    def test_identical_twice(self, runner):
        a, b = runner(), runner()
        assert a.sim.stats.scalar_snapshot() == b.sim.stats.scalar_snapshot()
        assert _mailbox(a) == _mailbox(b)

    def test_wf2_identical_twice(self):
        a, b = _run_wf2(), _run_wf2()
        assert a.records == b.records
        assert a.alerts == b.alerts
        assert a.reached == b.reached
        assert a.phase_seconds == b.phase_seconds
