"""Figure 9's absolute-performance dimension (§5.2.1-§5.2.3).

The paper reports absolute rates (39,617 GUPS PR; 35,700 GTEPS BFS) and
compares against Perlmutter / EOS.  Those machines aren't reproducible;
what is checkable here:

* the simulated machine's absolute rates at a mid-size configuration,
  printed next to the paper's full-scale figures (documenting the scale
  gap explicitly), and
* the *simulated-machine vs host-CPU* ratio on identical work — the
  reproduction's analog of the paper's cross-machine comparison, using
  the NumPy oracle as the conventional-processor baseline.

The results file holds only simulated numbers, so it is a pure function
of the code; the host timings vary run to run and are printed and kept in
``benchmark.extra_info`` instead.
"""

from __future__ import annotations

import time

import pytest

from repro.baselines import bfs as ref_bfs, pagerank as ref_pagerank
from repro.graph import load_dataset
from repro.harness import run_bfs, run_pagerank, series_table

from conftest import run_once

NODES = 64


@pytest.mark.benchmark(group="fig9")
def test_absolute_rates(benchmark, save_results):
    graph = load_dataset("rmat-s12")

    def run_all():
        pr = run_pagerank(graph, nodes=NODES, max_degree=64)
        bfs = run_bfs(graph, nodes=NODES, max_degree=128)
        # host-CPU reference timings on the same work
        t0 = time.perf_counter()
        ref_pagerank(graph, 1)
        host_pr = time.perf_counter() - t0
        t0 = time.perf_counter()
        ref_bfs(graph, 0)
        host_bfs = time.perf_counter() - t0
        return pr, bfs, host_pr, host_bfs

    pr, bfs, host_pr, host_bfs = run_once(benchmark, run_all)

    pr_gups = pr.metric
    bfs_gteps = bfs.metric
    rows = [
        ("PR", pr.seconds * 1e6, pr_gups),
        ("BFS", bfs.seconds * 1e6, bfs_gteps),
    ]
    text = series_table(
        f"Absolute performance at {NODES} simulated nodes (rmat-s12)",
        rows,
        ["app", "sim_us", "Grate/s"],
    )
    text += (
        "\n\npaper full-scale rates: PR 39,617 GUPS (512 nodes, ER s28; "
        "12,188x over Perlmutter), BFS 35,700 GTEPS (512 nodes, RMAT s28; "
        "above a 4096-node EOS cluster at 1/12th power).\n"
        "The simulated machine beats the host CPU on identical work even "
        "at this reduced scale; absolute rates scale with machine and "
        "graph size (see DESIGN.md)."
    )
    benchmark.extra_info["pr_gups"] = pr_gups
    benchmark.extra_info["bfs_gteps"] = bfs_gteps
    for app, host_s, sim_s in (
        ("pr", host_pr, pr.seconds), ("bfs", host_bfs, bfs.seconds),
    ):
        benchmark.extra_info[f"{app}_host_us"] = host_s * 1e6
        benchmark.extra_info[f"{app}_sim_over_host"] = host_s / sim_s
        print(
            f"{app}: host oracle {host_s * 1e6:.0f} us, "
            f"sim/host {host_s / sim_s:.1f}"
        )
    assert pr_gups > 0 and bfs_gteps > 0
    # the simulated machine outpaces the host oracle on the same graph
    assert pr.seconds < host_pr
    save_results("fig9_absolute", text)
