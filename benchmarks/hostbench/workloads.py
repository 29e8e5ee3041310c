"""The six hostbench workloads: inputs, reasons, and how each is driven.

Everything here goes through the repo's public API only (see README,
"Public API surface"), so the benchmark measures each layer from outside
and keeps working across refactors of the simulator core.  No workload
passes ``coalescing=`` — ROADMAP item 3 may delete that knob, and a
benchmark that named it would block the deletion.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"


def use_repo_sources() -> None:
    """Put the checkout's ``src`` on ``sys.path`` (the benchmark measures
    the sources beside it, never an installed copy)."""
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"hostbench: no simulator sources at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


#: placement block for the scaled graphs (the harness runners' value:
#: keeps blocks-per-array comparable to full scale, see DESIGN.md).
BLOCK_SIZE = 512

#: SimStats counters that must be bit-identical between a workload and
#: its twin (batch/interpreter split counters are deliberately absent).
FINGERPRINT_COUNTERS = (
    "final_tick",
    "events_executed",
    "messages_sent",
    "messages_remote",
    "dram_reads",
    "dram_writes",
    "threads_created",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: which driver below runs it: pagerank | bfs | tc | service
    kind: str
    #: full-size inputs, and the ``--quick`` ones (whole pass < 60 s)
    inputs: Dict[str, Any]
    quick_inputs: Dict[str, Any]
    #: ``bench_config`` overrides / ``UpDownRuntime`` keyword arguments
    machine: Dict[str, Any] = field(default_factory=dict)
    runtime: Dict[str, Any] = field(default_factory=dict)
    #: workload whose fingerprint this one must reproduce bit for bit
    twin_of: Optional[str] = None
    #: regression bound on the timing metrics for ``compare``
    timing_bound: float = 0.05
    #: fewest host cores on which the numbers mean anything
    min_cores: int = 1


_PAGERANK = dict(scale=13, nodes=16, iterations=2)
_PAGERANK_QUICK = dict(scale=8, nodes=4, iterations=1)

WORKLOADS = (
    Workload(
        "pagerank",
        "shuffle-heavy (~0.8 messages/event): kvmsr, machine.network and "
        "interpreter dispatch do most of the work",
        "pagerank", _PAGERANK, _PAGERANK_QUICK,
    ),
    Workload(
        "bfs",
        "pagerank's layers driven as many short drains (one per round) "
        "over a frontier: shows per-drain and footprint costs",
        "bfs",
        dict(scale=14, nodes=16, root=0),
        dict(scale=8, nodes=4, root=0),
    ),
    Workload(
        "tc",
        "read-only DRAM streaming (0.06 messages/event): memmodel and "
        "machine.memory carry it, the shuffle layers are bypassed",
        "tc",
        dict(scale=10, nodes=16),
        dict(scale=7, nodes=4),
    ),
    Workload(
        "pagerank_batch",
        "pagerank inputs with batch_dispatch=True: the only workload that "
        "enters udweave.ir's compiled batch core; twin of pagerank",
        "pagerank", _PAGERANK, _PAGERANK_QUICK,
        machine=dict(batch_dispatch=True),
        twin_of="pagerank",
    ),
    Workload(
        "pagerank_par2",
        "pagerank inputs on 2 forked shards: the only workload that "
        "crosses machine.parallel's rings, codec and barrier; twin of "
        "pagerank",
        "pagerank", _PAGERANK, _PAGERANK_QUICK,
        runtime=dict(shards=2, parallel=True),
        twin_of="pagerank",
        timing_bound=0.10,
        min_cores=2,
    ),
    Workload(
        "service_soak",
        "open loop in simulated time at one rate below the knee: "
        "until-stepping, recorder on, SHT/graph writes beside reads",
        "service",
        dict(requests=48_000, n_vertices=2048, mean_gap_cycles=800.0,
             nodes=8),
        dict(requests=1_500, n_vertices=256, mean_gap_cycles=800.0,
             nodes=4),
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _stats_bytes(stats) -> bytes:
    return repr(
        [(k, getattr(stats, k, None)) for k in FINGERPRINT_COUNTERS]
    ).encode()


# ----------------------------------------------------------------------
# Graph workloads: setup -> (runtime, app), drain -> result, oracle
# ----------------------------------------------------------------------

def graph_inputs(inputs: Dict[str, Any], seed: int):
    from repro.graph.generators import rmat

    return rmat(inputs["scale"], seed=seed)


def build_runtime(w: Workload, inputs: Dict[str, Any]):
    from repro.harness import bench_config
    from repro.udweave import UpDownRuntime

    return UpDownRuntime(bench_config(inputs["nodes"], **w.machine),
                         **w.runtime)


def build_app(w: Workload, rt, graph):
    from repro.apps import BFSApp, PageRankApp, TriangleCountApp

    cls = {"pagerank": PageRankApp, "bfs": BFSApp,
           "tc": TriangleCountApp}[w.kind]
    return cls(rt, graph, block_size=BLOCK_SIZE)


def drain_graph(w: Workload, inputs: Dict[str, Any], app):
    """The one public drain call; returns the app's result object."""
    if w.kind == "pagerank":
        return app.run(iterations=inputs["iterations"])
    if w.kind == "bfs":
        return app.run(root=inputs["root"])
    return app.run()


def oracle_graph(w: Workload, inputs: Dict[str, Any], graph):
    """The CPU reference answer the simulated run must reproduce."""
    from repro import baselines

    if w.kind == "pagerank":
        return baselines.pagerank(graph, inputs["iterations"])
    if w.kind == "bfs":
        return baselines.bfs(graph, inputs["root"])[0]
    return baselines.triangle_count(graph)


def answer_graph(w: Workload, result):
    """The part of the app result the oracle is compared against."""
    if w.kind == "pagerank":
        return result.ranks
    if w.kind == "bfs":
        return result.distances
    return result.triangles


def matches_oracle(w: Workload, answer, expected) -> bool:
    import numpy as np

    if w.kind == "pagerank":
        # float sums in a different order than the vectorized oracle
        return bool(np.abs(answer - expected).max() < 1e-9)
    if w.kind == "bfs":
        return bool(np.array_equal(answer, expected))
    return bool(answer == expected)


def fingerprint_graph(w: Workload, result) -> str:
    import numpy as np

    answer = answer_graph(w, result)
    return _digest(_stats_bytes(result.stats),
                   np.asarray(answer).tobytes())


# ----------------------------------------------------------------------
# Service workload: one call builds, soaks and tears down the machine
# ----------------------------------------------------------------------

def service_requests(inputs: Dict[str, Any], seed: int):
    """The materialized open-loop stream (seed 7 -> workload 21, gaps 5).

    Arrival ticks are *simulated* cycles, and latency is counted from
    each request's due tick, so the host-side generator cannot run late.
    """
    from repro.service import PoissonArrivals, ServiceWorkload

    workload = ServiceWorkload(seed=seed + 14,
                               n_vertices=inputs["n_vertices"])
    arrivals = PoissonArrivals(mean_gap_cycles=inputs["mean_gap_cycles"],
                               seed=abs(seed - 2))
    return workload.requests(arrivals.times(inputs["requests"]))


def drain_service(inputs: Dict[str, Any], requests):
    """``run_service`` with the defaults: 4,000-cycle until-steps and the
    recorder at its ``histograms`` tier; returns the ServiceResult."""
    from repro.harness import run_service
    from repro.service import SLOSpec

    record = run_service(requests, nodes=inputs["nodes"], slo=SLOSpec())
    return record.extra["service"]


def fingerprint_service(result) -> str:
    return _digest(_stats_bytes(result.stats), result.fingerprint().encode())

