"""Failure injection and multi-application coexistence."""

import numpy as np
import pytest

from repro.apps import PageRankApp, TriangleCountApp
from repro.baselines import pagerank as ref_pagerank, triangle_count
from repro.faults import FaultPlan
from repro.graph import rmat
from repro.machine import bench_machine
from repro.udweave import UpDownRuntime


def _delayed_runtime(seed, delay_cycles):
    """A 2-node machine whose remote messages are delay-faulted at 30%:
    content-keyed extra latency that reorders deliveries across lanes."""
    plan = FaultPlan(seed=seed, delay_rate=0.3, delay_cycles=delay_cycles)
    return UpDownRuntime(bench_machine(nodes=2), faults=plan)


class TestMessageReorderingRobustness:
    """Applications must not depend on message timing: results are
    identical when delay faults reorder deliveries across lanes.  That
    the reordered run is identical across shard counts is drawn by
    ``test_mode_lattice.py`` (its ``delays`` plan)."""

    def _pagerank(self, graph, seed):
        rt = _delayed_runtime(seed, 500.0)
        return PageRankApp(rt, graph, max_degree=16).run(max_events=5_000_000)

    def test_pagerank_invariant_under_delay(self, rmat_s6):
        expected = ref_pagerank(rmat_s6, 1)
        for seed in (0, 1, 2):
            res = self._pagerank(rmat_s6, seed)
            assert res.stats.faults_messages_delayed > 0
            assert np.abs(res.ranks - expected).max() < 1e-9

    def test_tc_invariant_under_delay(self, rmat_s6):
        expected = triangle_count(rmat_s6)
        for seed in (0, 3):
            rt = _delayed_runtime(seed, 800.0)
            res = TriangleCountApp(rt, rmat_s6).run(max_events=10_000_000)
            assert res.stats.faults_messages_delayed > 0
            assert res.triangles == expected

    def test_delay_changes_timing_not_results(self, rmat_s6):
        times = {self._pagerank(rmat_s6, seed).elapsed_seconds
                 for seed in (0, 1)}
        assert len(times) == 2  # timing did change


class TestCoexistence:
    def test_two_apps_share_one_machine(self, rmat_s6):
        """Sequential phases of different apps on one runtime: distinct
        regions, distinct jobs, no cross-talk."""
        rt = UpDownRuntime(bench_machine(nodes=2))
        pr = PageRankApp(rt, rmat_s6, max_degree=16)
        tc = TriangleCountApp(rt, rmat_s6)
        pr_res = pr.run(max_events=5_000_000)
        tc_res = tc.run(max_events=10_000_000)
        assert np.abs(pr_res.ranks - ref_pagerank(rmat_s6, 1)).max() < 1e-9
        assert tc_res.triangles == triangle_count(rmat_s6)

    def test_pagerank_twice_on_one_machine(self, rmat_s6):
        """Fresh app instances must not inherit stale combining-cache or
        counter state."""
        rt = UpDownRuntime(bench_machine(nodes=2))
        a = PageRankApp(rt, rmat_s6, max_degree=16).run(max_events=5_000_000)
        rt2 = UpDownRuntime(bench_machine(nodes=2))
        b = PageRankApp(rt2, rmat_s6, max_degree=16).run(max_events=5_000_000)
        assert np.array_equal(a.ranks, b.ranks)
