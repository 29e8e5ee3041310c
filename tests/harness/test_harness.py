"""Harness: runners, sweeps, reports, LoC metrics."""

import numpy as np
import pytest

from repro.apps import Pattern, make_workload
from repro.graph import rmat
from repro.harness import (
    RunRecord,
    TABLE5_MAP,
    TABLE5_PAPER_LOC,
    bench_config,
    count_loc,
    fingerprint,
    is_monotone_nondecreasing,
    repo_loc,
    run_bfs,
    run_ingestion,
    run_pagerank,
    run_partial_match,
    run_service,
    run_triangle_count,
    scaling_efficiency,
    series_table,
    shape_agreement,
    speedup_table,
    speedups,
    sweep,
    table5_loc,
)
from repro.machine import SimulationError, Simulator, bench_machine


class TestRunners:
    def test_pagerank_runner(self, rmat_s6):
        rec = run_pagerank(rmat_s6, nodes=2, max_degree=16)
        assert rec.nodes == 2
        assert rec.seconds > 0
        assert rec.extra["edges"] == rmat_s6.m

    def test_bfs_runner(self, rmat_s6):
        rec = run_bfs(rmat_s6, nodes=2, max_degree=16)
        assert rec.extra["rounds"] >= 1
        assert rec.metric > 0

    def test_tc_runner(self, rmat_s6):
        from repro.baselines import triangle_count

        rec = run_triangle_count(rmat_s6, nodes=2)
        assert rec.extra["triangles"] == triangle_count(rmat_s6)

    def test_ingestion_runner(self):
        recs = make_workload(40, seed=0)
        rec = run_ingestion(recs, nodes=2)
        assert rec.extra["records"] == len(recs)

    def test_partial_match_runner(self):
        recs = make_workload(20, n_edge_types=2, seed=0)
        rec = run_partial_match(
            recs, [Pattern(0, (0, 1))], nodes=1, gap_cycles=50_000
        )
        assert rec.seconds > 0

    def test_bench_config_shape(self):
        cfg = bench_config(8)
        assert cfg.nodes == 8
        assert cfg.lanes_per_node == 2


def _service_requests():
    from repro.service import ServiceWorkload, SteadyArrivals

    workload = ServiceWorkload(seed=7, n_vertices=32)
    return workload.requests(SteadyArrivals(gap_cycles=3000.0).times(20))


#: each runner on small inputs at 2 nodes; ``options`` are the runner's
#: ``**options`` (runtime keywords and MachineConfig overrides)
RUNNERS = {
    "pagerank": lambda **options: run_pagerank(
        rmat(6, seed=48), 2, max_degree=16, **options
    ),
    "bfs": lambda **options: run_bfs(
        rmat(6, seed=48), 2, max_degree=16, **options
    ),
    "tc": lambda **options: run_triangle_count(rmat(6, seed=48), 2, **options),
    "ingestion": lambda **options: run_ingestion(
        make_workload(40, seed=0), 2, **options
    ),
    "partial_match": lambda **options: run_partial_match(
        make_workload(20, n_edge_types=2, seed=0), [Pattern(0, (0, 1))], 2,
        gap_cycles=50_000, **options,
    ),
    "service": lambda **options: run_service(_service_requests(), 2, **options),
}


def _modeled(rec):
    """What a run modeled: the record's figures, the model counters and
    every app output (a service result by its digest)."""
    # the host-side reports, and the two outputs compared by digest
    apart = ("recorder", "parallel_metrics", "batch", "stats", "service")
    outputs = {k: v for k, v in rec.extra.items() if k not in apart}
    service = rec.extra.get("service")
    return (
        rec.seconds,
        rec.metric,
        rec.extra["stats"].model_snapshot(),
        outputs,
        service.fingerprint() if service is not None else None,
    )


@pytest.mark.parametrize("name", sorted(RUNNERS))
class TestRunnerOptions:
    """Every runner shares one prologue: runtime keywords and machine
    overrides arrive through ``**options`` alike."""

    def test_shards_reach_the_runtime_and_change_nothing_modeled(self, name):
        seq = RUNNERS[name]()
        sharded = RUNNERS[name](shards=2)
        assert "parallel_metrics" not in seq.extra
        assert sharded.extra["parallel_metrics"]["windows"] > 0
        assert _modeled(sharded) == _modeled(seq)

    def test_machine_override_reaches_the_config(self, name):
        with pytest.raises(ValueError, match="local_msg_latency_cycles"):
            RUNNERS[name](local_msg_latency_cycles=-5000)

    def test_unknown_option_is_a_type_error(self, name):
        with pytest.raises(TypeError, match="no_such_option"):
            RUNNERS[name](no_such_option=1)


class TestSweepAnalysis:
    def _records(self, times):
        return [
            RunRecord(nodes=n, seconds=t, metric=0.0)
            for n, t in times
        ]

    def test_speedups_normalize_to_first(self):
        rs = self._records([(1, 10.0), (2, 5.0), (4, 2.5)])
        assert speedups(rs) == {1: 1.0, 2: 2.0, 4: 4.0}

    def test_scaling_efficiency(self):
        rs = self._records([(1, 10.0), (4, 5.0)])
        eff = scaling_efficiency(rs)
        assert eff[4] == pytest.approx(0.5)

    def test_monotone_check(self):
        assert is_monotone_nondecreasing([1, 2, 3, 3.1])
        assert is_monotone_nondecreasing([1, 2, 1.99])  # within slack
        assert not is_monotone_nondecreasing([1, 2, 1.0])

    def test_shape_agreement_perfect(self):
        m = {1: 1.0, 2: 2.0, 4: 3.9, 8: 7.0}
        assert shape_agreement(m, m) == pytest.approx(1.0)

    def test_shape_agreement_reversed(self):
        m = {1: 1.0, 2: 2.0, 4: 3.0}
        r = {1: 3.0, 2: 2.0, 4: 1.0}
        assert shape_agreement(m, r) == pytest.approx(-1.0)

    def test_shape_agreement_needs_points(self):
        with pytest.raises(ValueError):
            shape_agreement({1: 1.0}, {1: 1.0})

    def test_ranks_average_ties(self):
        from repro.harness.sweep import _ranks

        # the two 5.0s span rank positions 1 and 2 -> both get 1.5
        assert _ranks([5.0, 1.0, 5.0]) == [1.5, 0.0, 1.5]
        assert _ranks([2.0, 2.0, 2.0]) == [1.0, 1.0, 1.0]

    def test_shape_agreement_with_ties(self):
        """Tied speedups (a saturated plateau) must not be ranked as if
        one of them were faster than the other."""
        measured = {1: 1.0, 2: 2.0, 4: 2.0, 8: 3.0}
        reported = {1: 1.0, 2: 2.0, 4: 2.1, 8: 3.0}
        # average ranks put both tied points at 1.5 vs 1 and 2:
        # d^2 = 2 * 0.25, rho = 1 - 6*0.5/(4*15)
        assert shape_agreement(measured, reported) == pytest.approx(0.95)
        # a tie against the same tie is perfect agreement
        assert shape_agreement(measured, measured) == pytest.approx(1.0)

    def test_sweep_runs_each_config(self, rmat_s6):
        rs = sweep(run_pagerank, (1, 2), graph=rmat_s6, max_degree=16)
        assert [r.nodes for r in rs] == [1, 2]

    def test_empty_speedups(self):
        assert speedups([]) == {}

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            speedups(self._records([(1, 0.0), (2, 1.0)]))


class TestReports:
    def test_speedup_table_renders(self):
        txt = speedup_table(
            "PR strong scaling",
            (1, 2, 4),
            {"rmat": {1: 1.0, 2: 2.0, 4: 3.5}},
            reported={"rmat": {1: 1.0, 2: 2.21, 4: 3.39}},
        )
        assert "PR strong scaling" in txt
        assert "paper" in txt
        assert "3.50" in txt

    def test_speedup_table_handles_missing_points(self):
        txt = speedup_table("t", (1, 8), {"g": {1: 1.0}})
        assert "-" in txt

    def test_series_table(self):
        txt = series_table("x", [(1, 2.5), (2, 5.0)], ["nodes", "val"])
        assert "nodes" in txt and "2.5" in txt


class TestLoc:
    def test_table5_rows_all_measured(self):
        measured = table5_loc()
        assert set(measured) == set(TABLE5_PAPER_LOC)
        assert all(v > 0 for v in measured.values())

    def test_count_loc_excludes_comments_and_docstrings(self, tmp_path):
        f = tmp_path / "x.py"
        f.write_text(
            '"""module docstring\nspanning lines"""\n'
            "# comment\n"
            "x = 1\n"
            "\n"
            "def f():\n"
            '    """doc"""\n'
            "    return x  # trailing comment still code\n"
        )
        assert count_loc(f) == 3  # x = 1, def f, return

    def test_repo_loc_is_substantial(self):
        assert repo_loc() > 4000

    def test_mapped_files_exist(self):
        from pathlib import Path

        import repro

        root = Path(repro.__file__).parent
        for files in TABLE5_MAP.values():
            for f in files:
                assert (root / f).exists(), f


class TestExport:
    def test_speedup_csv_roundtrip(self, tmp_path):
        from repro.harness import read_csv, write_speedup_csv

        path = write_speedup_csv(
            tmp_path / "s.csv",
            (1, 2, 4),
            {"g": {1: 1.0, 2: 2.0, 4: 3.5}},
            reported={"g": {1: 1.0, 2: 2.2}},
        )
        rows = read_csv(path)
        assert rows[0] == ["nodes", "g_measured", "g_paper"]
        assert rows[1] == ["1", "1.0", "1.0"]
        assert rows[3] == ["4", "3.5", ""]  # missing paper point

    def test_series_csv(self, tmp_path):
        from repro.harness import read_csv, write_series_csv

        path = write_series_csv(
            tmp_path / "t.csv", [(1, 0.5), (2, 0.25)], ["nodes", "sec"]
        )
        rows = read_csv(path)
        assert rows == [["nodes", "sec"], ["1", "0.5"], ["2", "0.25"]]


class TestInspect:
    def _run(self):
        from repro.graph import rmat
        from repro.apps import PageRankApp
        from repro.machine import bench_machine
        from repro.observe import make_recorder
        from repro.udweave import UpDownRuntime

        # event_report counts the full tier's per-event lane spans
        rt = UpDownRuntime(
            bench_machine(nodes=4), recorder=make_recorder("full")
        )
        PageRankApp(rt, rmat(7, seed=48), max_degree=16,
                    block_size=4096).run(max_events=10_000_000)
        return rt.sim

    def test_memory_report_shows_shares(self):
        from repro.harness import memory_report

        sim = self._run()
        text = memory_report(sim)
        assert "bytes_served" in text
        assert "hot/mean ratio" in text

    def test_lane_report_shows_balance(self):
        from repro.harness import lane_report

        sim = self._run()
        text = lane_report(sim)
        assert "imbalance" in text and "utilization" in text

    def test_event_report_ranks_labels(self):
        from repro.harness import event_report

        sim = self._run()
        text = event_report(sim, top=3)
        assert "PRReduceTask::__reduce_entry__" in text
        assert "not counted" not in text  # no span hit the cap

    def test_event_report_names_the_full_tier(self):
        from repro.harness import event_report
        from repro.machine import Simulator, bench_machine

        text = event_report(Simulator(bench_machine(nodes=1)))
        assert "unavailable" in text and "record='full'" in text

    def test_full_report_concatenates(self):
        from repro.harness import full_report

        sim = self._run()
        text = full_report(sim)
        assert "ticks=" in text and "bytes_served" in text


class TestFingerprint:
    def test_arrays_compare_by_dtype_shape_and_bits(self):
        sim = Simulator(bench_machine(nodes=1))
        nan = np.array([np.nan, 1.0])
        assert fingerprint(sim, nan) == fingerprint(sim, nan.copy())
        assert fingerprint(sim, nan) != fingerprint(sim, nan.astype(np.float32))
        assert fingerprint(sim, nan) != fingerprint(sim, nan.reshape(2, 1))
        assert fingerprint(sim, (nan, 3)) == fingerprint(sim, [nan.copy(), 3])

    def test_a_broken_event_partition_raises(self):
        sim = Simulator(bench_machine(nodes=1))
        sim.stats.events_executed += 1
        with pytest.raises(SimulationError, match="events_executed"):
            fingerprint(sim)
