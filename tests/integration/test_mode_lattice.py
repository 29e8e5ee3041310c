"""The mode lattice: no host-side mode changes what the machine does.

A case is an app on a small seeded input (an RMAT graph, 400 values
for histogram and bucket sort, or 48 keys for the ``fanin`` emitter)
plus a draw from every host-side axis: ``shards``, batched dispatch, a
fault plan, a recorder tier, the watchdog and the drain's shape.  A
stepped drain also checks that no record parked before its bound
outlives the step.  Its :func:`repro.harness.fingerprint`
must equal that of the same app, input and fault plan run whole on the
sequential interpreter (``shards=1, batch_dispatch=False``, no recorder,
no watchdog).  Derandomized, with no example database: every tier-1 run
draws the same cases, and a failure shrinks to a minimal configuration.
"""

import math
from functools import lru_cache

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.apps import (
    BFSApp,
    BucketSortApp,
    KTrussApp,
    PageRankApp,
    TriangleCountApp,
)
from repro.datastruct import HistogramApp
from repro.faults import FaultPlan
from repro.graph import rmat
from repro.harness import bench_config, fingerprint
from repro.kvmsr import (
    CombiningCache,
    KVMSRJob,
    MapTask,
    RangeInput,
    ReduceTask,
    emit_to_reduce,
)
from repro.machine import SimulationError
from repro.observe import make_recorder
from repro.udweave import UDThread, UpDownRuntime, event

NODES = 4
BLOCK = 512
LOOKAHEAD = bench_config(NODES).conservative_lookahead_cycles


def _pagerank(rt, seed):
    app = PageRankApp(rt, rmat(6, seed=seed), max_degree=16, block_size=BLOCK)
    return app.run(iterations=2).ranks


def _bfs(rt, seed):
    app = BFSApp(rt, rmat(6, seed=seed), max_degree=16, block_size=BLOCK)
    res = app.run(root=0)
    return res.distances, res.parents


def _tc(rt, seed):
    app = TriangleCountApp(rt, rmat(6, seed=seed), block_size=BLOCK)
    return app.run().triangles


def _ktruss(rt, seed):
    res = KTrussApp(rt, rmat(6, seed=seed), 3, block_size=BLOCK).run()
    return res.truss.offsets, res.truss.neighbors, res.rounds


def _values(seed):
    return np.random.default_rng(seed).integers(0, 1 << 16, 400)


def _histogram(rt, seed):
    """A combining-cache reduce that parks (``HistReduceTask``)."""
    app = HistogramApp(rt, _values(seed), nbins=16, block_size=BLOCK)
    return app.run().counts


def _sort(rt, seed):
    """Two drains: a count reduce that parks, then a scatter reduce that
    is not declared ``intrinsic_only`` and keeps the interpreter."""
    return BucketSortApp(rt, _values(seed)).run().output


class _NoMap(MapTask):
    """Never launched: the fan-in emitter feeds the reduce phase."""

    def kv_map(self, ctx, key):
        self.kv_map_return(ctx)


class _SumReduce(ReduceTask):
    intrinsic_only = True

    def kv_reduce(self, ctx, key, value):
        self.job(ctx).payload.add(ctx, key, value)
        self.kv_reduce_return(ctx)


def _fanin(rt, seed):
    """One event emits 48 reduce tuples and terminates at once: no master
    thread waits on them, so between their issue and their delivery
    nothing but parked records is in flight (every other app keeps a
    KVMSR master thread live).  The float sums are order-sensitive."""
    keys = [int(k) for k in np.random.default_rng(seed).integers(0, 64, 48)]
    job_id = KVMSRJob(
        rt, _NoMap, RangeInput(1), reduce_cls=_SumReduce,
        payload=CombiningCache("fanin"),
    ).job_id

    @rt.register
    class Emitter(UDThread):
        @event
        def go(self, ctx):
            for i, key in enumerate(keys):
                emit_to_reduce(ctx, job_id, key, 1.0 / (i + 3))
                ctx.work(3)
            ctx.yield_terminate()

    rt.start(rt.config.lanes_per_node - 1, "Emitter::go")
    return rt.run().quiesced


APPS = {
    "pagerank": _pagerank, "bfs": _bfs, "tc": _tc, "ktruss": _ktruss,
    "histogram": _histogram, "sort": _sort, "fanin": _fanin,
}
#: the apps with a reduce that parks
PARKING_APPS = ["bfs", "fanin", "histogram", "pagerank", "sort"]

#: name -> (FaultPlan keywords, reliable)
PLANS = {
    "none": (None, False),
    "delays": (dict(seed=5, delay_rate=0.3, delay_cycles=700.0), False),
    "drops": (dict(seed=11, drop_rate=0.02), True),
    "duplicates": (dict(seed=11, duplicate_rate=0.05), True),
    "stalls": (dict(seed=5, lane_stall_rate=0.05, lane_stall_cycles=300.0),
               False),
    # legal and never fails, so it is no fail-stop: plans still park
    "never_fails": (dict(fail_stop={1: math.inf}), False),
}

#: (kind, arg): a whole drain; ``run(until=)`` steps of ``arg`` cycles,
#: narrower and wider than a window; steps that stop on the tick of the
#: earliest parked record whenever it is less than ``arg`` cycles on, so
#: the bound leaves that record parked (on ``fanin``, with nothing else
#: in flight); or an abort every ``events - 1`` (``arg`` 1) or
#: ``events // arg`` events, each resumed by a ``run()``
SHAPES = [
    ("whole", None),
    ("until", LOOKAHEAD - 350.0),
    ("until", 5_000.0),
    ("parked", LOOKAHEAD - 350.0),
    ("abort", 1),
    ("abort", 2),
    ("abort", 7),
]


def _run(app, seed, plan, shape=("whole", None), shards=1,
         batch=False, record=None, watchdog=None):
    faults, reliable = PLANS[plan]
    rt = UpDownRuntime(
        bench_config(NODES, batch_dispatch=batch),
        shards=shards,
        recorder=make_recorder(record),
        faults=FaultPlan(**faults) if faults else None,
        reliable=reliable,
        watchdog_cycles=watchdog,
    )
    kind, arg = shape
    sim = rt.sim
    lanes = sim._lanes.values()

    # every app drains through ``rt.run``: reshape each of its drains
    def stepped(max_events=None):
        until = sim.now
        while True:
            last, until = until, until + arg
            if kind == "parked":
                parked = min(
                    (ln.parked[0][0] for ln in lanes if ln.parked),
                    default=math.inf,
                )
                if last < parked < until:
                    until = parked
            stats = sim.run(until=until)
            # nothing parked before the bound outlives the step, on any
            # shard
            assert not any(
                ln.parked and ln.parked[0][0] < until for ln in lanes
            )
            if stats.quiesced:
                return stats

    def resumed(max_events=None):
        while True:
            try:
                return sim.run(max_events=budget)
            except SimulationError as err:
                if "max_events" not in str(err):
                    raise

    if kind in ("until", "parked"):
        rt.run = stepped
    elif kind == "abort":
        events = _reference(app, seed, plan)["model"]["events_executed"]
        budget = events - 1 if arg == 1 else events // arg
        rt.run = resumed
    return fingerprint(rt.sim, APPS[app](rt, seed))


@lru_cache(maxsize=None)
def _reference(app, seed, plan):
    return _run(app, seed, plan)


LATTICE = settings(derandomize=True, database=None, deadline=None,
                   max_examples=60)


def _seed(app, shards, batch, plan):
    """A checked-in draw: one whole drain, no recorder, no watchdog."""
    return example(app=app, seed=0, plan=plan, shards=shards,
                   batch=batch, record=None, watchdog=None,
                   shape=("whole", None))


@LATTICE
@given(
    app=st.sampled_from(sorted(APPS)),
    seed=st.integers(0, 1),
    plan=st.sampled_from(sorted(PLANS)),
    shards=st.integers(1, 4),
    batch=st.booleans(),
    record=st.sampled_from([None, "histograms", "full"]),
    watchdog=st.sampled_from([None, 1e12]),  # armed, but cannot fire
    shape=st.sampled_from(SHAPES),
)
@_seed("pagerank", 1, True, "none")
@_seed("pagerank", 2, True, "none")
@_seed("pagerank", 4, True, "none")
@_seed("bfs", 2, True, "none")
@_seed("bfs", 4, True, "none")
@_seed("histogram", 2, True, "none")
@_seed("sort", 4, True, "none")
@_seed("pagerank", 1, True, "drops")
@_seed("pagerank", 2, True, "drops")
@_seed("pagerank", 2, False, "drops")
@_seed("pagerank", 4, False, "drops")
@_seed("pagerank", 2, False, "delays")
def test_every_mode_equals_the_sequential_interpreter(
    app, seed, plan, shards, batch, record, watchdog, shape
):
    assert _run(app, seed, plan, shape, shards, batch, record,
                watchdog) == _reference(app, seed, plan)


def _parked_only(shards):
    """A checked-in draw whose step bounds leave only parked records."""
    return example(app="fanin", seed=0, plan="none", shards=shards,
                   record=None, watchdog=None,
                   shape=("parked", LOOKAHEAD - 350.0))


@LATTICE
@given(
    app=st.sampled_from(PARKING_APPS),
    seed=st.integers(0, 1),
    plan=st.sampled_from(["none", "delays", "stalls", "never_fails"]),
    shards=st.integers(1, 4),
    record=st.sampled_from([None, "histograms", "full"]),
    watchdog=st.sampled_from([None, 1e12]),
    shape=st.sampled_from(SHAPES),
)
@_parked_only(1)
@_parked_only(3)
def test_parking_modes_equal_the_sequential_interpreter(
    app, seed, plan, shards, record, watchdog, shape
):
    """The sub-lattice whose drains park: batched dispatch on, apps with
    declared reduces, every recorder tier, watched or not.  Drawn on its
    own because uniform draws over every axis rarely land here; under
    the lane-stall plan every plan refuses to park."""
    assert _run(app, seed, plan, shape, shards, True, record,
                watchdog) == _reference(app, seed, plan)
