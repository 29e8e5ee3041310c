"""The mode lattice: no host-side mode changes what the machine does.

A case is an app on a small RMAT graph plus a draw from every host-side
axis: ``shards``, batched dispatch, a fault plan, a recorder tier, the
watchdog and the drain's shape.  Its :func:`repro.harness.fingerprint`
must equal that of the same app, graph and fault plan run whole on the
sequential interpreter (``shards=1, batch_dispatch=False``, no recorder,
no watchdog).  Derandomized, with no example database: every tier-1 run
draws the same cases, and a failure shrinks to a minimal configuration.
"""

from functools import lru_cache

from hypothesis import example, given, settings, strategies as st

from repro.apps import BFSApp, KTrussApp, PageRankApp, TriangleCountApp
from repro.faults import FaultPlan
from repro.graph import rmat
from repro.harness import bench_config, fingerprint
from repro.machine import SimulationError
from repro.observe import make_recorder
from repro.udweave import UpDownRuntime

NODES = 4
BLOCK = 512
LOOKAHEAD = bench_config(NODES).conservative_lookahead_cycles


def _pagerank(rt, graph):
    app = PageRankApp(rt, graph, max_degree=16, block_size=BLOCK)
    return app.run(iterations=2).ranks


def _bfs(rt, graph):
    res = BFSApp(rt, graph, max_degree=16, block_size=BLOCK).run(root=0)
    return res.distances, res.parents


def _tc(rt, graph):
    return TriangleCountApp(rt, graph, block_size=BLOCK).run().triangles


def _ktruss(rt, graph):
    res = KTrussApp(rt, graph, 3, block_size=BLOCK).run()
    return res.truss.offsets, res.truss.neighbors, res.rounds


APPS = {"pagerank": _pagerank, "bfs": _bfs, "tc": _tc, "ktruss": _ktruss}

#: name -> (FaultPlan keywords, reliable)
PLANS = {
    "none": (None, False),
    "delays": (dict(seed=5, delay_rate=0.3, delay_cycles=700.0), False),
    "drops": (dict(seed=11, drop_rate=0.02), True),
    "duplicates": (dict(seed=11, duplicate_rate=0.05), True),
    "stalls": (dict(seed=5, lane_stall_rate=0.05, lane_stall_cycles=300.0),
               False),
}

#: (kind, arg): a whole drain; ``run(until=)`` steps of ``arg`` cycles,
#: narrower and wider than a window; or an abort every ``events - 1``
#: (``arg`` 1) or ``events // arg`` events, each resumed by a ``run()``
SHAPES = [
    ("whole", None),
    ("until", LOOKAHEAD - 350.0),
    ("until", 5_000.0),
    ("abort", 1),
    ("abort", 2),
    ("abort", 7),
]


def _run(app, graph_seed, plan, shape=("whole", None), shards=1,
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
    sim_run = rt.sim.run

    # every app drains through ``rt.run``: reshape each of its drains
    def stepped(max_events=None):
        until = rt.sim.now
        while True:
            until += arg
            stats = sim_run(until=until)
            if stats.quiesced:
                return stats

    def resumed(max_events=None):
        while True:
            try:
                return sim_run(max_events=budget)
            except SimulationError as err:
                if "max_events" not in str(err):
                    raise

    if kind == "until":
        rt.run = stepped
    elif kind == "abort":
        events = _reference(app, graph_seed, plan)["model"]["events_executed"]
        budget = events - 1 if arg == 1 else events // arg
        rt.run = resumed
    return fingerprint(rt.sim, APPS[app](rt, rmat(6, seed=graph_seed)))


@lru_cache(maxsize=None)
def _reference(app, graph_seed, plan):
    return _run(app, graph_seed, plan)


LATTICE = settings(derandomize=True, database=None, deadline=None,
                   max_examples=60)


def _seed(app, shards, batch, plan):
    """A checked-in draw: one whole drain, no recorder, no watchdog."""
    return example(app=app, graph_seed=0, plan=plan, shards=shards,
                   batch=batch, record=None, watchdog=None,
                   shape=("whole", None))


@LATTICE
@given(
    app=st.sampled_from(sorted(APPS)),
    graph_seed=st.integers(0, 1),
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
@_seed("pagerank", 1, True, "drops")
@_seed("pagerank", 2, True, "drops")
@_seed("pagerank", 2, False, "drops")
@_seed("pagerank", 4, False, "drops")
@_seed("pagerank", 2, False, "delays")
def test_every_mode_equals_the_sequential_interpreter(
    app, graph_seed, plan, shards, batch, record, watchdog, shape
):
    assert _run(app, graph_seed, plan, shape, shards, batch, record,
                watchdog) == _reference(app, graph_seed, plan)


@LATTICE
@given(
    app=st.sampled_from(["pagerank", "bfs"]),
    graph_seed=st.integers(0, 1),
    plan=st.sampled_from(["none", "delays", "stalls"]),
    shards=st.integers(1, 4),
    record=st.sampled_from([None, "histograms"]),
    shape=st.sampled_from(SHAPES),
)
def test_parking_modes_equal_the_sequential_interpreter(
    app, graph_seed, plan, shards, record, shape
):
    """The sub-lattice whose drains park: batched dispatch on, apps with
    declared reduces, no lane spans, no watchdog.  Drawn on its own
    because uniform draws over every axis rarely land here; only the
    lane-stall plan must disarm it."""
    assert _run(app, graph_seed, plan, shape, shards, True,
                record) == _reference(app, graph_seed, plan)
