"""K-Truss decomposition on KVMSR (paper §6: "triangle counters in
K-Truss" as shared mutable state; evaluated at length in [37]).

The k-truss of a graph is the maximal subgraph in which every edge is
supported by at least ``k - 2`` triangles.  The standard peeling
algorithm alternates support counting and edge removal until a fixed
point.  In the KVMSR rendering each round is one invocation:

* **map** over live vertices: enumerate live edge pairs ``<x, y>`` with
  ``x > y`` (TC's map task, reused);
* **reduce** per pair: intersect the endpoints' *live* neighbor lists —
  the support of edge (x, y), through TC's pair fetch and merge — and
  record weak edges (support < k-2) in per-lane scratchpad;
* **flush** reports the number of weak edges; the host (TOP core) peels
  them and rebuilds the live CSR for the next round, the same inter-phase
  glue the artifact's host programs do.

Unlike TC's ``z < y`` convention, support counts *all* common neighbors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.graph.csr import CSRGraph
from repro.graph.io import VERTEX_STRIDE_WORDS, vertex_records
from repro.kvmsr import ArrayInput, KVMSRJob
from repro.machine.stats import SimStats
from repro.udweave import UpDownRuntime

from .triangle import TCMapTask, TCReduceTask


class KTrussReduceTask(TCReduceTask):
    """Support = |N(x) ∩ N(y)| over the live graph; weak edges recorded.

    TC's pair fetch and merge, counting every common neighbor."""

    only_below_y = False

    def _tally(self, ctx, support: int) -> None:
        app = self.job(ctx).payload
        if support < app.k - 2:
            weak_key = ("ktw", app.uid)
            weak: List[tuple] = ctx.sp_read(weak_key, None) or []
            weak.append((self.x, self.y))
            ctx.sp_write(weak_key, weak)
            ctx.work(2)
        self.kv_reduce_return(ctx)

    def kv_flush(self, ctx):
        app = self.job(ctx).payload
        weak_key = ("ktw", app.uid)
        weak = ctx.sp_read(weak_key, None) or []
        # hand the weak list to the host peel step through the payload
        app.weak_edges.extend(weak)
        ctx.sp_write(weak_key, [])
        self.kv_flush_return(ctx, len(weak))


@dataclass
class KTrussResult:
    truss: CSRGraph
    rounds: int
    edges_remaining: int
    elapsed_seconds: float
    stats: SimStats


class KTrussApp:
    """Peel a graph to its k-truss on one simulated machine."""

    def __init__(
        self,
        runtime: UpDownRuntime,
        graph: CSRGraph,
        k: int,
        mem_nodes: Optional[int] = None,
        block_size: int = 4096,
        max_inflight: int = 64,
    ) -> None:
        if k < 3:
            raise ValueError("k-truss is defined for k >= 3")
        if not graph.is_symmetric():
            raise ValueError("k-truss expects a symmetric simple graph")
        self.runtime = runtime
        self.k = k
        self.block_size = block_size
        self.max_inflight = max_inflight
        if mem_nodes is None:
            mem_nodes = 1 << (runtime.config.nodes.bit_length() - 1)
        self.mem_nodes = mem_nodes
        self.graph = graph
        self.weak_edges: List[Tuple[int, int]] = []
        self.uid = -1
        self._round = 0
        self.gv_region = None
        self.nl_region = None

    def _load_round(self, graph: CSRGraph) -> KVMSRJob:
        """Allocate fresh regions for this round's live graph (the VA
        space is never reused, so stale pointers fault)."""
        gm = self.runtime.gmem
        records = vertex_records(graph)
        self.gv_region = gm.dram_malloc(
            records.size * 8, 0, self.mem_nodes, self.block_size,
            name=f"kt_gv_{self._round}",
        )
        self.gv_region[:] = records.ravel()
        self.nl_region = gm.dram_malloc(
            max(8, graph.m * 8), 0, self.mem_nodes, self.block_size,
            name=f"kt_nl_{self._round}",
        )
        if graph.m:
            self.nl_region[: graph.m] = graph.neighbors
        job = KVMSRJob(
            self.runtime,
            TCMapTask,
            ArrayInput(self.gv_region, VERTEX_STRIDE_WORDS, graph.n),
            reduce_cls=KTrussReduceTask,
            payload=self,
            max_inflight=self.max_inflight,
            name=f"ktruss_{self._round}",
        )
        self.uid = job.job_id
        return job

    def run(self, max_events: Optional[int] = None) -> KTrussResult:
        rt = self.runtime
        live = self.graph
        rounds = 0
        stats = None
        while True:
            self.weak_edges = []
            self._round = rounds
            job = self._load_round(live)
            _, stats = job.run(
                "ktruss_round_done", "k-truss round", max_events=max_events
            )
            rounds += 1
            if not self.weak_edges:
                break
            live = _peel(live, self.weak_edges)
            if live.m == 0:
                break
        return KTrussResult(
            truss=live,
            rounds=rounds,
            edges_remaining=live.m,
            elapsed_seconds=rt.elapsed_seconds,
            stats=stats,
        )


def _peel(graph: CSRGraph, weak: List[Tuple[int, int]]) -> CSRGraph:
    """Host (TOP-core) peel: drop both directions of each weak edge."""
    dead: Set[Tuple[int, int]] = set()
    for x, y in weak:
        dead.add((x, y))
        dead.add((y, x))
    kept = [e for e in graph.edges() if e not in dead]
    if not kept:
        return CSRGraph.from_edges([], n=graph.n)
    return CSRGraph.from_edges(
        kept, n=graph.n, dedup=False, drop_self_loops=False
    )


def reference_ktruss(graph: CSRGraph, k: int) -> Set[Tuple[int, int]]:
    """Oracle: networkx k_truss edge set (both directions)."""
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(range(graph.n))
    G.add_edges_from(graph.edges())
    truss = nx.k_truss(G, k)
    out: Set[Tuple[int, int]] = set()
    for a, b in truss.edges():
        out.add((a, b))
        out.add((b, a))
    return out
