"""Chaos parity: applications survive injected faults bit-for-bit.

The acceptance bar for the fault subsystem (DESIGN.md "Fault model"):

* a seeded plan dropping ~1% of remote messages, with ack/retry enabled,
  yields **bit-identical application results** to the fault-free run —
  PageRank ranks, BFS distances, and triangle counts;
* the *same faulty run* is bit-reproducible (shard-count invariance of
  faulted runs is drawn by ``test_mode_lattice.py``);
* with faults disabled the whole subsystem is dormant: fingerprints are
  bit-identical to a runtime built without any fault arguments.

PageRank's float bit-identity is by construction, not luck: the workload
is dyadic (power-of-two vertex count, uniform out-degree 2, damping 0.5),
so every contribution is an exact binary fraction, every addition is
exact, and sums are order-invariant — retry-induced reordering cannot
perturb the result.  BFS distances and triangle counts are integers and
order-insensitive by nature.
"""

import numpy as np
import pytest

from repro.apps import BFSApp, PageRankApp, TriangleCountApp
from repro.faults import FaultPlan
from repro.graph import CSRGraph
from repro.harness import bench_config, fingerprint
from repro.udweave import UpDownRuntime

NODES = 4
BLOCK = 512
N = 64  # power of two: 1/N and damping/N are exact binary fractions

#: ring-with-chords graph: vertex i -> i+1, i+2 (mod N).  Uniform
#: out-degree 2 keeps every PageRank contribution dyadic.
RING = CSRGraph.from_edges(
    [(i, (i + 1) % N) for i in range(N)]
    + [(i, (i + 2) % N) for i in range(N)],
    n=N,
)
#: symmetrized variant for BFS/TC (undirected semantics; closes the
#: (i, i+1, i+2) triangles).
RING_SYM = CSRGraph.from_edges(
    [(i, (i + 1) % N) for i in range(N)]
    + [(i, (i + 2) % N) for i in range(N)],
    n=N,
    symmetrize=True,
)

#: ~1% remote drop; seed chosen so the bench workloads actually lose
#: messages (asserted below — a plan that never fires proves nothing)
PLAN = dict(seed=11, drop_rate=0.01)


def chaos_rt(faulty, shards=1, **kw):
    return UpDownRuntime(
        bench_config(NODES),
        faults=FaultPlan(**PLAN) if faulty else None,
        reliable=faulty,
        shards=shards,
        **kw,
    )


class TestApplicationResultsSurviveDrops:
    def test_pagerank_ranks_bit_identical(self):
        def run(faulty):
            rt = chaos_rt(faulty)
            app = PageRankApp(
                rt, RING, max_degree=16, damping=0.5, block_size=BLOCK
            )
            res = app.run(iterations=3, max_events=10_000_000)
            return rt, res

        _rt, golden = run(faulty=False)
        rt, res = run(faulty=True)
        assert rt.sim.stats.faults_messages_dropped > 0
        assert rt.sim.stats.quiesced
        assert rt.sim.stats.transport_retransmits > 0
        assert np.array_equal(res.ranks, golden.ranks)  # bitwise

    def test_bfs_distances_bit_identical(self):
        def run(faulty):
            rt = chaos_rt(faulty)
            app = BFSApp(rt, RING_SYM, max_degree=16, block_size=BLOCK)
            res = app.run(root=0, max_events=10_000_000)
            return rt, res

        _rt, golden = run(faulty=False)
        rt, res = run(faulty=True)
        assert rt.sim.stats.faults_messages_dropped > 0
        assert rt.sim.stats.quiesced
        assert np.array_equal(res.distances, golden.distances)
        assert res.traversed_edges == golden.traversed_edges

    def test_triangle_count_identical(self):
        def run(faulty):
            rt = chaos_rt(faulty)
            app = TriangleCountApp(rt, RING_SYM, block_size=BLOCK)
            res = app.run(max_events=10_000_000)
            return rt, res

        _rt, golden = run(faulty=False)
        rt, res = run(faulty=True)
        assert golden.triangles == N  # every (i, i+1, i+2) closes
        assert rt.sim.stats.faults_messages_dropped > 0
        assert rt.sim.stats.quiesced
        assert res.triangles == golden.triangles


class TestFaultyRunsAreReproducible:
    def test_faulty_run_is_bit_reproducible(self):
        fps = []
        for _ in range(2):
            rt = chaos_rt(faulty=True)
            app = PageRankApp(
                rt, RING, max_degree=16, damping=0.5, block_size=BLOCK
            )
            app.run(iterations=2, max_events=10_000_000)
            fps.append(fingerprint(rt.sim))
        assert fps[0] == fps[1]


class TestDisabledFaultsAreFree:
    def test_faults_none_matches_runtime_without_fault_args(self):
        """``faults=None`` must be indistinguishable from a build that
        never heard of the subsystem — the healthy send path stays on
        the fast branch and every fingerprint counter matches."""

        def run(**kw):
            rt = UpDownRuntime(bench_config(NODES), **kw)
            app = PageRankApp(
                rt, RING, max_degree=16, damping=0.5, block_size=BLOCK
            )
            res = app.run(iterations=2, max_events=10_000_000)
            return fingerprint(rt.sim, res.ranks)

        assert run() == run(faults=None, reliable=False, watchdog_cycles=None)
