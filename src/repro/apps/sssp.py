"""Single-source shortest paths on KVMSR — a §4.4-style further example.

Bellman-Ford in KVMSR rounds, the weighted sibling of the label-propagation
components app: every round, each reachable vertex pushes
``dist[v] + w(v, u)`` along its out-edges; reduces min-combine per target
on the owner lane; the flush applies improvements and reports how many
distances changed, and the device-side driver repeats until a round
changes nothing (at most |V| - 1 productive rounds).

Edge weights live in a region parallel to the neighbor list — the same
two-array graph layout as every other app, plus one array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.io import VERTEX_STRIDE_WORDS, vertex_records
from repro.kvmsr import ArrayInput, KVMSRJob, MapTask, ReduceTask, job_of
from repro.kvmsr.binding import splitmix64
from repro.machine.stats import SimStats
from repro.udweave import UDThread, UpDownRuntime, event

#: "infinity" marker for unreached vertices (fits int64)
UNREACHED = (1 << 62) - 1


def default_weights(graph: CSRGraph, max_weight: int = 16) -> np.ndarray:
    """Deterministic positive weights per directed edge: a hash of the
    (src, dst, occurrence) triple, in ``1..max_weight``."""
    if max_weight < 1:
        raise ValueError("weights must be positive")
    weights = np.empty(graph.m, dtype=np.int64)
    for v in range(graph.n):
        lo, hi = int(graph.offsets[v]), int(graph.offsets[v + 1])
        for idx in range(lo, hi):
            u = int(graph.neighbors[idx])
            weights[idx] = 1 + splitmix64(v * 1_000_003 + u) % max_weight
    return weights


class SSSPMapTask(MapTask):
    """Push this vertex's tentative distance along every out-edge."""

    def kv_map(self, ctx, key, rep, degree, nl_off, orig_degree):
        app = self.job(ctx).payload
        self._degree, self._nl_off = degree, nl_off
        if degree == 0:
            self.kv_map_return(ctx)
            return
        ctx.send_dram_read(app.dist_region.addr(rep), 1, "got_dist")
        ctx.yield_()

    @event
    def got_dist(self, ctx, dist):
        app = self.job(ctx).payload
        if dist >= UNREACHED:  # unreached vertices push nothing yet
            self.kv_map_return(ctx)
            return
        self._dist = dist
        self._left = self._degree
        # interleave: neighbors then their weights (two reads per chunk)
        ctx.send_dram_reads(
            app.nl_region.addr(self._nl_off), self._degree, "got_nbrs",
            tag=self._nl_off, work=1,
        )
        ctx.yield_()

    @event
    def got_nbrs(self, ctx, nl_off, i, *neighbors):
        app = self.job(ctx).payload
        ctx.send_dram_read(
            app.weight_region.addr(nl_off + i),
            len(neighbors),
            "got_weights",
            tag=neighbors,
        )
        ctx.yield_()

    @event
    def got_weights(self, ctx, neighbors, *weights):
        for u, w in zip(neighbors, weights):
            self.kv_emit(ctx, u, self._dist + w)
            ctx.work(2)
        self._left -= len(neighbors)
        if self._left == 0:
            self.kv_map_return(ctx)
        else:
            ctx.yield_()


class SSSPReduceTask(ReduceTask):
    """Min-combine tentative distances on the owner lane."""

    def kv_reduce(self, ctx, u, cand):
        app = self.job(ctx).payload
        key = ("sspmin", app.uid, u)
        current = ctx.sp_read(key)
        ctx.work(2)
        if current is None or cand < current:
            ctx.sp_write(key, cand)
            owned = ctx.sp_read(("sspk", app.uid), None)
            if owned is None:
                owned = set()
                ctx.sp_write(("sspk", app.uid), owned)
            owned.add(u)
        self.kv_reduce_return(ctx)

    def kv_flush(self, ctx):
        app = self.job(ctx).payload
        owned = ctx.sp_read(("sspk", app.uid), None) or set()
        improved = 0
        for u in owned:
            cand = ctx.sp_read(("sspmin", app.uid, u))
            ctx.sp_write(("sspmin", app.uid, u), None)
            ctx.work(2)
            if cand < int(app.dist_region.data[u]):
                ctx.send_dram_write(app.dist_region.addr(u), [cand])
                improved += 1
        ctx.sp_write(("sspk", app.uid), set())
        self.kv_flush_return(ctx, improved)


class SSSPDriver(UDThread):
    """Relax rounds until a fixed point."""

    def __init__(self) -> None:
        self.job_id = -1
        self.cont = None
        self.rounds = 0

    @event
    def start(self, ctx, job_id):
        self.job_id = job_id
        self.cont = ctx.ccont
        job_of(ctx, job_id).launch_from(ctx, ctx.self_evw("round_done"))
        ctx.yield_()

    @event
    def round_done(self, ctx, tasks, emitted, polls, improved):
        self.rounds += 1
        if improved == 0:
            ctx.send_event(self.cont, self.rounds)
            ctx.yield_terminate()
        else:
            job_of(ctx, self.job_id).launch_from(
                ctx, ctx.self_evw("round_done")
            )
            ctx.yield_()


@dataclass
class SSSPResult:
    distances: np.ndarray  # UNREACHED -> -1
    rounds: int
    elapsed_seconds: float
    stats: SimStats


class SSSPApp:
    """Weighted shortest paths from one source on a simulated machine."""

    def __init__(
        self,
        runtime: UpDownRuntime,
        graph: CSRGraph,
        weights: Optional[np.ndarray] = None,
        mem_nodes: Optional[int] = None,
        block_size: int = 4096,
        max_inflight: int = 64,
    ) -> None:
        if weights is None:
            weights = default_weights(graph)
        weights = np.asarray(weights, dtype=np.int64)
        if len(weights) != graph.m:
            raise ValueError("need exactly one weight per directed edge")
        if graph.m and weights.min() <= 0:
            raise ValueError("weights must be positive")
        self.runtime = runtime
        self.graph = graph
        self.weights = weights
        gm = runtime.gmem
        if mem_nodes is None:
            mem_nodes = 1 << (runtime.config.nodes.bit_length() - 1)
        records = vertex_records(graph)
        self.gv_region = gm.dram_malloc(
            records.size * 8, 0, mem_nodes, block_size, name="sssp_gv"
        )
        self.gv_region[:] = records.ravel()
        self.nl_region = gm.dram_malloc(
            max(8, graph.m * 8), 0, mem_nodes, block_size, name="sssp_nl"
        )
        self.weight_region = gm.dram_malloc(
            max(8, graph.m * 8), 0, mem_nodes, block_size, name="sssp_w"
        )
        if graph.m:
            self.nl_region[: graph.m] = graph.neighbors
            self.weight_region[: graph.m] = weights
        self.dist_region = gm.dram_malloc(
            graph.n * 8, 0, mem_nodes, block_size, name="sssp_dist"
        )
        self.job = KVMSRJob(
            runtime,
            SSSPMapTask,
            ArrayInput(self.gv_region, VERTEX_STRIDE_WORDS, graph.n),
            reduce_cls=SSSPReduceTask,
            payload=self,
            max_inflight=max_inflight,
            name="sssp_round",
        )
        self.uid = self.job.job_id
        runtime.register(SSSPDriver)

    def run(
        self, source: int = 0, max_events: Optional[int] = None
    ) -> SSSPResult:
        if not (0 <= source < self.graph.n):
            raise ValueError(f"source {source} out of range")
        rt = self.runtime
        self.dist_region[:] = UNREACHED
        self.dist_region[source] = 0
        (rounds,), stats = rt.call(
            self.job.master_lane, "SSSPDriver::start", self.job.job_id,
            done="sssp_done", what="SSSP", max_events=max_events,
        )
        dist = self.dist_region.data.copy()
        dist[dist >= UNREACHED] = -1
        return SSSPResult(
            distances=dist,
            rounds=rounds,
            elapsed_seconds=rt.elapsed_seconds,
            stats=stats,
        )


def reference_sssp(
    graph: CSRGraph, weights: np.ndarray, source: int
) -> np.ndarray:
    """Oracle: Dijkstra over the weighted edges (networkx)."""
    import networkx as nx

    G = nx.DiGraph()
    G.add_nodes_from(range(graph.n))
    for v in range(graph.n):
        lo, hi = int(graph.offsets[v]), int(graph.offsets[v + 1])
        for idx in range(lo, hi):
            u = int(graph.neighbors[idx])
            w = int(weights[idx])
            # parallel edges keep the lightest
            if G.has_edge(v, u):
                w = min(w, G[v][u]["weight"])
            G.add_edge(v, u, weight=w)
    lengths = nx.single_source_dijkstra_path_length(G, source)
    out = np.full(graph.n, -1, dtype=np.int64)
    for v, d in lengths.items():
        out[v] = d
    return out
