"""A drain that ends without its completion message raises a typed error.

Under a fault plan that drops messages and no reliable transport, a job
loses control traffic and its host-side driver never hears back.  Each
app's "did not complete" check raises :class:`RunIncomplete`, a
:class:`SimulationError` (so still a ``RuntimeError``), with the
caller's message unchanged, the machine's stall dump (queued events,
parked records, blocked threads, KVMSR credits) and its fault counters.
"""

import pytest

from repro.apps import BFSApp, IngestionApp, PageRankApp, TriangleCountApp
from repro.apps import KTrussApp, MultihopApp, PartialMatchApp, Pattern
from repro.apps import make_workload
from repro.datastruct import SymmetricRegion, sum_reduce
from repro.faults import FaultPlan, RunIncomplete
from repro.graph import rmat
from repro.harness import bench_config
from repro.machine import SimulationError, bench_machine
from repro.udweave import UpDownRuntime

GRAPH = rmat(6, seed=0)
BLOCK = 512

APPS = {
    "PageRank": lambda rt: PageRankApp(rt, GRAPH, block_size=BLOCK).run(
        iterations=1
    ),
    "BFS": lambda rt: BFSApp(rt, GRAPH, block_size=BLOCK).run(root=0),
    "TC": lambda rt: TriangleCountApp(rt, GRAPH, block_size=BLOCK).run(),
    "ingestion": lambda rt: IngestionApp(rt, make_workload(40)).run(),
}


@pytest.mark.parametrize("name", sorted(APPS))
def test_a_lossy_run_raises_run_incomplete(name):
    rt = UpDownRuntime(
        bench_config(4), faults=FaultPlan(seed=1, drop_rate=0.2)
    )
    with pytest.raises(RunIncomplete) as info:
        APPS[name](rt)
    err = info.value
    assert isinstance(err, SimulationError) and isinstance(err, RuntimeError)
    assert str(err) == f"{name} did not complete"
    dump = err.diagnostic
    assert {"next_events", "parked_records", "next_parked"} <= set(dump)
    assert dump["parked_records"] == rt.sim._parked_total
    assert dump["pending_threads"] > 0 and dump["blocked_threads"]
    assert "kvmsr_credits" in dump
    assert err.faults["faults_messages_dropped"] > 0
    assert set(err.faults) == {
        k for k in rt.sim.stats.scalar_snapshot() if k.startswith("faults_")
    }


# A driver that waits more than once on one machine must accept only the
# completion its own drain delivered: each case below returned a wrong
# answer when any earlier completion under the same tag counted.


def _assert_incomplete(info, message):
    err = info.value
    assert str(err) == message
    assert err.diagnostic
    assert err.faults["faults_messages_dropped"] > 0


def test_a_lost_ktruss_round_is_not_an_earlier_rounds_completion():
    rt = UpDownRuntime(
        bench_machine(nodes=4), faults=FaultPlan(seed=7, drop_rate=0.002)
    )
    with pytest.raises(RunIncomplete) as info:
        KTrussApp(rt, rmat(6, seed=3), k=4).run()
    _assert_incomplete(info, "k-truss round did not complete")


def test_a_lost_multihop_hop_is_not_an_earlier_hops_completion():
    records = make_workload(120, n_vertices=30, seed=9)
    rt = UpDownRuntime(
        bench_machine(nodes=4), faults=FaultPlan(seed=1, drop_rate=0.01)
    )
    app = MultihopApp(rt, records)
    app.run_ingest()
    with pytest.raises(RunIncomplete) as info:
        app.query([1], 3)
    _assert_incomplete(info, "multihop hop did not complete")


def _fill(sym, value):
    for node in range(sym.runtime.config.nodes):
        sym.host_view(node)[:] = value


def test_a_lost_second_sum_reduce_is_not_the_first_ones_total():
    rt = UpDownRuntime(
        bench_machine(nodes=8), faults=FaultPlan(seed=129, drop_rate=0.05)
    )
    sym = SymmetricRegion(rt, "s", words_per_node=1)
    _fill(sym, 4)
    assert sum_reduce(sym)[0] == 32
    _fill(sym, 8)
    with pytest.raises(RunIncomplete) as info:
        sum_reduce(sym)
    _assert_incomplete(info, "sum_reduce did not complete")


def test_a_clean_second_sum_reduce_returns_the_new_total():
    rt = UpDownRuntime(bench_machine(nodes=8))
    sym = SymmetricRegion(rt, "s", words_per_node=1)
    _fill(sym, 4)
    assert sum_reduce(sym)[0] == 32
    _fill(sym, 8)
    assert sum_reduce(sym)[0] == 64


def test_a_lost_partial_match_record_raises_run_incomplete():
    rt = UpDownRuntime(
        bench_machine(nodes=2), faults=FaultPlan(seed=3, drop_rate=0.05)
    )
    app = PartialMatchApp(rt, [Pattern(0, (0, 1))])
    with pytest.raises(RunIncomplete) as info:
        app.run_stream(
            make_workload(40, n_edge_types=3, seed=7), gap_cycles=100_000.0
        )
    _assert_incomplete(info, "records never completed: [24]...")
