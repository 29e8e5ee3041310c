"""What an in-flight DRAM read costs the host.

An app that hides DRAM latency keeps thousands of split-phase reads
outstanding (TC streams both neighbor lists of every edge pair), so the
objects one read holds while it waits are the heap population.  A read
is one :class:`~repro.machine.events.DramAccess` from issue until its
reply is handled, and its words wait as one shared ``bytes`` copy of the
list — never as a tuple of Python ints.  This steps a small TC run into
its widest point and counts, under ``tracemalloc``, the blocks the
queued reads hold: the heap entry, its time and sequence key, the
record, and whatever the record refers to that was allocated for it.
"""

import gc
import tracemalloc

from repro.apps import TriangleCountApp
from repro.baselines import triangle_count
from repro.graph.generators import rmat
from repro.harness import bench_config
from repro.machine import DramAccess
from repro.udweave import UpDownRuntime

#: a tick of the run below with ~4,000 reads queued (its makespan is
#: ~33,000 cycles)
WIDEST_TICK = 9_400.0

#: blocks one in-flight read may hold: the entry tuple, its time, its
#: sequence key, the record, its node-local offset and a share of the
#: list's bytes make 5.15 here.  A request record beside a reply record
#: holding a tuple of words made 6.53, with every vertex id of this
#: graph a cached small int; on larger graphs each word is one more.
MAX_BLOCKS_PER_READ = 6


def _held(obj, seen):
    """Count the traced blocks reachable from ``obj`` through tuples and
    DRAM records, each object once."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    n = tracemalloc.get_object_traceback(obj) is not None
    if isinstance(obj, tuple):
        children = obj
    elif isinstance(obj, DramAccess):
        children = [getattr(obj, s, None) for s in DramAccess.__slots__]
    else:
        children = ()
    return n + sum(_held(child, seen) for child in children)


def test_an_in_flight_read_is_one_record_and_its_bytes():
    rt = UpDownRuntime(bench_config(4))
    app = TriangleCountApp(rt, rmat(7, seed=7), block_size=512)
    app.job.launch(cont_tag="tc_done")
    gc.collect()
    tracemalloc.start()
    try:
        rt.sim.run(until=WIDEST_TICK)
        queued = rt.sim._queued()
        config = rt.config
        reads = [e for e in queued if e[3].kind == "dram"]
        remote = [
            r for *_, r in reads
            if r.memory_node != config.node_of(r.src_network_id)
        ]
        assert len(remote) >= 1_000
        # one record class per access, both legs; no word tuples
        for *_, r in reads:
            assert type(r) is DramAccess
            for slot in DramAccess.__slots__:
                assert not isinstance(getattr(r, slot, None), tuple)
        assert all(type(e[3]).__name__ != "DramArrival" for e in queued)
        seen = set()
        blocks = sum(_held(entry, seen) for entry in reads)
    finally:
        tracemalloc.stop()
    assert blocks <= MAX_BLOCKS_PER_READ * len(reads)
    # the reads still deliver what the oracle expects
    rt.run()
    (_t, _e, _p, triangles) = rt.host_messages("tc_done")[-1].operands
    assert triangles == triangle_count(app.graph)
