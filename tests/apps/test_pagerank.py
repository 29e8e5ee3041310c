"""PageRank on the simulated machine vs the NumPy oracle."""

from collections import Counter

import numpy as np
import pytest

from repro.apps import PageRankApp
from repro.baselines import pagerank as ref_pagerank
from repro.graph import CSRGraph, path_graph, rmat, star_graph
from repro.machine import bench_machine
from repro.observe import make_recorder
from repro.udweave import UpDownRuntime


def run_pr(graph, nodes=2, iterations=1, record=None, **kw):
    rt = UpDownRuntime(
        bench_machine(nodes=nodes), recorder=make_recorder(record)
    )
    app = PageRankApp(rt, graph, max_degree=kw.pop("max_degree", 16), **kw)
    return app.run(iterations=iterations, max_events=5_000_000), rt


class TestCorrectness:
    def test_one_iteration_matches_oracle(self, rmat_s6):
        res, _ = run_pr(rmat_s6)
        expected = ref_pagerank(rmat_s6, 1)
        assert np.abs(res.ranks - expected).max() < 1e-9

    def test_three_iterations_match(self, rmat_s6):
        res, _ = run_pr(rmat_s6, iterations=3)
        expected = ref_pagerank(rmat_s6, 3)
        assert np.abs(res.ranks - expected).max() < 1e-9

    def test_path_graph_exact(self, path10):
        res, _ = run_pr(path10, nodes=1)
        assert np.abs(res.ranks - ref_pagerank(path10, 1)).max() < 1e-12

    def test_star_graph_with_splitting(self, star32):
        """The hub (degree 31) splits under max_degree=8; the result must
        equal the unsplit oracle (the §5.2.1 correctness claim)."""
        res, _ = run_pr(star32, max_degree=8)
        assert np.abs(res.ranks - ref_pagerank(star32, 1)).max() < 1e-12

    def test_graph_with_dangling_vertex(self):
        g = CSRGraph.from_edges([(0, 1), (1, 0), (2, 0)], n=3)
        res, _ = run_pr(g, nodes=1)
        assert np.abs(res.ranks - ref_pagerank(g, 1)).max() < 1e-12

    def test_ranks_conserve_mass_on_regular_graph(self):
        from repro.graph import complete_graph

        g = complete_graph(6)
        res, _ = run_pr(g, nodes=1)
        assert res.ranks.sum() == pytest.approx(1.0)

    def test_custom_damping(self, rmat_s6):
        rt = UpDownRuntime(bench_machine(nodes=2))
        app = PageRankApp(rt, rmat_s6, max_degree=16, damping=0.5)
        res = app.run(max_events=5_000_000)
        assert np.abs(res.ranks - ref_pagerank(rmat_s6, 1, 0.5)).max() < 1e-9

    def test_results_deterministic_across_runs(self, rmat_s6):
        r1, _ = run_pr(rmat_s6)
        r2, _ = run_pr(rmat_s6)
        assert np.array_equal(r1.ranks, r2.ranks)
        assert r1.elapsed_seconds == r2.elapsed_seconds


class TestMachineInteraction:
    def test_uses_all_nodes_memory(self, rmat_s7):
        # 4KB blocks so the (small) test arrays span several nodes
        _res, rt = run_pr(rmat_s7, nodes=4, block_size=4096)
        served = [rt.sim.memory.bytes_served(n) for n in range(4)]
        assert all(b > 0 for b in served)

    def test_mem_nodes_restricts_placement(self, rmat_s6):
        rt = UpDownRuntime(bench_machine(nodes=4))
        app = PageRankApp(rt, rmat_s6, max_degree=16, mem_nodes=1)
        app.run(max_events=5_000_000)
        assert rt.sim.memory.bytes_served(0) > 0
        assert rt.sim.memory.bytes_served(2) == 0

    def test_emits_proportional_to_edges(self, rmat_s6):
        # lane spans (record="full") label every executed event
        res, rt = run_pr(rmat_s6, record="full")
        labels = Counter(label for *_, label in rt.recorder.lane_spans)
        # one emit per edge per iteration -> one reduce entry per edge
        assert labels["PRReduceTask::__reduce_entry__"] == rmat_s6.m

    def test_gups_metric(self, rmat_s6):
        res, _ = run_pr(rmat_s6)
        assert res.giga_updates_per_second > 0
        assert res.edges_per_iteration == rmat_s6.m

    def test_invalid_iterations_rejected(self, rmat_s6):
        rt = UpDownRuntime(bench_machine(nodes=1))
        app = PageRankApp(rt, rmat_s6, max_degree=16)
        with pytest.raises(ValueError):
            app.run(iterations=0)
