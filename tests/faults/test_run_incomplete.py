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
from repro.apps import make_workload
from repro.faults import FaultPlan, RunIncomplete
from repro.graph import rmat
from repro.harness import bench_config
from repro.machine import SimulationError
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
