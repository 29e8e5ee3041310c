"""Triangle counting vs both oracles, Block and PBMW bindings."""

from collections import Counter

import pytest

from repro.apps import TriangleCountApp
from repro.baselines import triangle_count, triangle_count_intersect
from repro.graph import CSRGraph, complete_graph, path_graph, rmat
from repro.machine import bench_machine
from repro.observe import make_recorder
from repro.udweave import UpDownRuntime


def run_tc(graph, nodes=2, record=None, **kw):
    rt = UpDownRuntime(
        bench_machine(nodes=nodes), recorder=make_recorder(record)
    )
    app = TriangleCountApp(rt, graph, **kw)
    return app.run(max_events=10_000_000), rt


class TestCorrectness:
    def test_rmat_matches_oracles(self, rmat_s6):
        res, _ = run_tc(rmat_s6)
        assert res.triangles == triangle_count(rmat_s6)
        assert res.triangles == triangle_count_intersect(rmat_s6)

    def test_complete_graph_k6(self):
        res, _ = run_tc(complete_graph(6), nodes=1)
        assert res.triangles == 20  # C(6,3)

    def test_triangle_free_graph(self, path10):
        res, _ = run_tc(path10, nodes=1)
        assert res.triangles == 0

    def test_single_triangle(self):
        g = CSRGraph.from_edges(
            [(0, 1), (1, 2), (0, 2)], n=3, symmetrize=True
        )
        res, _ = run_tc(g, nodes=1)
        assert res.triangles == 1

    def test_two_sharing_an_edge(self):
        g = CSRGraph.from_edges(
            [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3)], n=4, symmetrize=True
        )
        res, _ = run_tc(g, nodes=1)
        assert res.triangles == 2

    def test_pbmw_binding_same_answer(self, rmat_s6):
        res, _ = run_tc(rmat_s6, pbmw=True)
        assert res.triangles == triangle_count(rmat_s6)

    def test_deterministic(self, rmat_s6):
        a, _ = run_tc(rmat_s6)
        b, _ = run_tc(rmat_s6)
        assert a.triangles == b.triangles
        assert a.elapsed_seconds == b.elapsed_seconds


class TestStructure:
    def test_one_reduce_per_ordered_edge(self, rmat_s6):
        # lane spans (record="full") label every executed event
        _res, rt = run_tc(rmat_s6, record="full")
        labels = Counter(label for *_, label in rt.recorder.lane_spans)
        assert labels["TCReduceTask::__reduce_entry__"] == rmat_s6.m // 2

    def test_streams_both_lists(self, rmat_s6):
        """The second TC version reads both endpoint lists from DRAM."""
        _res, rt = run_tc(rmat_s6)
        words_read = rt.sim.stats.dram_bytes_read // 8
        m = rmat_s6.m
        # at least: map reads all lists once (m words) + reduce streams
        assert words_read > 1.5 * m
