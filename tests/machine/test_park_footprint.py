"""What a parked reduce record costs the host.

A batched drain parks its reduce records on their destination lanes
until the lane is next observed, so at a wide point of a BFS drain the
parked records outnumber everything else in flight.  A record is a slot
in its run's typed columns — a delivery time and an actor count, 16
bytes — plus a payload slot only when its plan's executor reads
operands; no tuple, float or int object is allocated for it.  This
steps small drains into a tick with thousands of records parked and
counts, under ``tracemalloc``, what the park store holds: the bytes
freed when every lane's runs and heap of run heads are dropped (the
columns, the run objects, the head keys and the payloads nothing else
holds).  Each run also has a fixed cost (its object, head key and array
headers, about 250 bytes), so the BFS case is sized to keep ~160
records per run, as the full-size drains do (~240).
"""

import gc
import tracemalloc

from repro.apps import BFSApp, PageRankApp
from repro.graph.generators import rmat
from repro.harness import bench_config
from repro.udweave import UpDownRuntime

#: a tick of the BFS drain below with ~10,000 records parked in 64 runs
#: (its makespan is ~93,000 cycles)
BFS_WIDE_TICK = 29_000.0

#: a tick of the one-iteration PageRank drain below with ~5,600 parked
PAGERANK_WIDE_TICK = 10_500.0

#: traced bytes one parked BFS record may cost: two 8-byte column slots
#: plus array over-allocation, a compacted-away consumed prefix and a
#: share of the runs' fixed cost make ~21.  One tuple per record (the
#: entry 4-tuple, its seq int and its time float, in a deque) cost ~142.
MAX_BYTES_PER_RECORD = 24


def _stepped(app_cls, scale, tick, start):
    """A runtime stepped to ``tick`` inside the app's one drain."""
    rt = UpDownRuntime(bench_config(4))
    app = app_cls(rt, rmat(scale, seed=7), block_size=512)

    def run(max_events=None):
        rt.sim.run(until=tick)
        raise _Stepped

    rt.run = run
    try:
        start(app)
    except _Stepped:
        pass
    return rt.sim


class _Stepped(Exception):
    pass


def _runs(sim):
    return [run for ln in sim._lanes.values() for run in ln.streams.values()]


def _columns(run):
    """A run's ``(times, counts, payloads)`` column types: an array's
    typecode, else the column's type name."""
    return tuple(
        getattr(col, "typecode", type(col).__name__)
        for col in (getattr(run, name, None)
                    for name in ("times", "counts", "payloads"))
    )


def test_a_parked_record_is_two_column_slots():
    gc.collect()
    tracemalloc.start()
    try:
        sim = _stepped(BFSApp, 10, BFS_WIDE_TICK, lambda app: app.run(root=0))
        parked = sim._parked_total
        assert parked >= 1_000
        assert sum(
            sum(1 for _ in ln.parked_records()) for ln in sim._lanes.values()
        ) == parked
        columns = {_columns(run) for run in _runs(sim)}
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        for ln in sim._lanes.values():
            ln.parked.clear()
            ln.streams.clear()
        gc.collect()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= MAX_BYTES_PER_RECORD * parked, held / parked
    # times and counts are typed arrays, and the hit arm reads no
    # operand, so no run keeps a payload column
    assert columns == {("d", "q", "NoneType")}


def test_the_payload_column_holds_what_parked_records_yields():
    """PageRank's executor reads ``(key, delta)``: its runs keep one
    payload tuple per record, and only those."""
    sim = _stepped(
        PageRankApp, 9, PAGERANK_WIDE_TICK, lambda app: app.run(iterations=1)
    )
    assert sim._parked_total >= 1_000
    for ln in sim._lanes.values():
        columns = sorted(
            (run.times[i], run.bits | run.counts[i], run.payloads[i])
            for run in ln.streams.values()
            for i in range(run.head, len(run.times))
        )
        yielded = [(t, seq, p) for t, seq, _plan, p in ln.parked_records()]
        assert columns == yielded
        for run in ln.streams.values():
            assert len(run.payloads) == len(run.times)
            for p in run.payloads[run.head:]:
                assert type(p) is tuple and len(p) == 2
