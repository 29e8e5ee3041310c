"""GNN kernels: genFeatures (doAll) and integrate (kvmap) — Table 3.

The AGILE GNN workload has two UpDown kernels [46]:

* **genFeatures** — a ``doAll`` over vertices materializing per-vertex
  feature vectors (here, simple degree-derived features: enough to give
  every vertex a distinct, checkable vector);
* **integrate** — the vertex-centric aggregation step: each vertex pushes
  its feature vector to its out-neighbors; reduces sum the incoming
  vectors (the mean/sum aggregation at the heart of GraphSAGE-style
  layers).  Exactly PageRank's communication pattern with vector values,
  which is why the paper groups them.

Feature vectors are ``FEATURE_DIM`` words; emits carry the whole vector
(small enough for operand registers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.io import VERTEX_STRIDE_WORDS, vertex_records
from repro.kvmsr import (
    ArrayInput,
    CombiningCache,
    KVMSRJob,
    MapTask,
    ReduceTask,
    job_of,
)
from repro.machine.stats import SimStats
from repro.udweave import UpDownRuntime, event

FEATURE_DIM = 4


def reference_features(graph: CSRGraph) -> np.ndarray:
    """The genFeatures oracle: degree-derived vectors."""
    deg = graph.degrees.astype(np.float64)
    v = np.arange(graph.n, dtype=np.float64)
    return np.stack([deg, deg * deg, v, np.ones(graph.n)], axis=1)


def reference_integrate(graph: CSRGraph, feats: np.ndarray) -> np.ndarray:
    """The integrate oracle: ``out[u] = Σ_{v→u} feats[v]``."""
    out = np.zeros_like(feats)
    for v in range(graph.n):
        for u in graph.out_neighbors(v):
            out[u] += feats[v]
    return out


class GenFeaturesTask(MapTask):
    """doAll body: compute one vertex's features and store them."""

    def kv_map(self, ctx, key, rep, degree, nl_off, orig_degree):
        app = self.job(ctx).payload
        feats = [float(degree), float(degree * degree), float(rep), 1.0]
        ctx.work(6)
        ctx.send_dram_write(app.feat_region.addr(rep * FEATURE_DIM), feats)
        self.kv_map_return(ctx)


class IntegrateTask(MapTask):
    """Push this vertex's feature vector along every out-edge."""

    def kv_map(self, ctx, key, rep, degree, nl_off, orig_degree):
        app = self.job(ctx).payload
        self._degree, self._nl_off = degree, nl_off
        if degree == 0:
            self.kv_map_return(ctx)
            return
        ctx.send_dram_read(
            app.feat_region.addr(rep * FEATURE_DIM), FEATURE_DIM, "got_feat"
        )
        ctx.yield_()

    @event
    def got_feat(self, ctx, *feat):
        app = self.job(ctx).payload
        self._feat = feat
        self._left = self._degree
        ctx.send_dram_reads(
            app.nl_region.addr(self._nl_off), self._degree, "got_nbrs", work=1
        )
        ctx.yield_()

    @event
    def got_nbrs(self, ctx, *neighbors):
        for u in neighbors:
            self.kv_emit(ctx, u, *self._feat)
            ctx.work(1)
        self._left -= len(neighbors)
        if self._left == 0:
            self.kv_map_return(ctx)
        else:
            ctx.yield_()


class IntegrateReduce(ReduceTask):
    """Vector fetch&add through the combining cache."""

    def kv_reduce(self, ctx, key, *feat):
        app = self.job(ctx).payload
        app.cache.add(ctx, key, np.asarray(feat))
        ctx.work(FEATURE_DIM)
        self.kv_reduce_return(ctx)

    def kv_flush(self, ctx):
        app = self.job(ctx).payload

        def write(c, key, vec):
            c.send_dram_write(
                app.out_region.addr(key * FEATURE_DIM), list(vec)
            )

        drained = app.cache.flush(ctx, write)
        self.kv_flush_return(ctx, drained)


@dataclass
class GNNResult:
    features: np.ndarray
    aggregated: np.ndarray
    elapsed_seconds: float
    stats: SimStats


class GNNApp:
    """genFeatures + integrate over one graph."""

    def __init__(
        self,
        runtime: UpDownRuntime,
        graph: CSRGraph,
        mem_nodes: Optional[int] = None,
        block_size: int = 32 * 1024,
    ) -> None:
        self.runtime = runtime
        self.graph = graph
        gm = runtime.gmem
        if mem_nodes is None:
            mem_nodes = 1 << (runtime.config.nodes.bit_length() - 1)
        records = vertex_records(graph)
        self.gv_region = gm.dram_malloc(
            records.size * 8, 0, mem_nodes, block_size, name="gnn_gv"
        )
        self.gv_region[:] = records.ravel()
        self.nl_region = gm.dram_malloc(
            max(8, graph.m * 8), 0, mem_nodes, block_size, name="gnn_nl"
        )
        if graph.m:
            self.nl_region[: graph.m] = graph.neighbors
        self.feat_region = gm.dram_malloc(
            graph.n * FEATURE_DIM * 8, 0, mem_nodes, block_size,
            dtype=np.float64, name="gnn_feat",
        )
        self.out_region = gm.dram_malloc(
            graph.n * FEATURE_DIM * 8, 0, mem_nodes, block_size,
            dtype=np.float64, name="gnn_out",
        )
        vin = ArrayInput(self.gv_region, VERTEX_STRIDE_WORDS, graph.n)
        self.gen_job = KVMSRJob(
            runtime, GenFeaturesTask, vin, payload=self, name="gnn_gen"
        )
        self.int_job = KVMSRJob(
            runtime,
            IntegrateTask,
            vin,
            reduce_cls=IntegrateReduce,
            payload=self,
            name="gnn_int",
        )
        self.cache = CombiningCache(f"gnn{self.int_job.job_id}")

    def run(self, max_events: Optional[int] = None) -> GNNResult:
        rt = self.runtime
        self.gen_job.launch(cont_tag="gnn_gen_done")
        rt.run(max_events=max_events)
        if not rt.host_messages("gnn_gen_done"):
            raise rt.sim.incomplete("genFeatures did not complete")
        self.int_job.launch(cont_tag="gnn_int_done")
        stats = rt.run(max_events=max_events)
        if not rt.host_messages("gnn_int_done"):
            raise rt.sim.incomplete("integrate did not complete")
        n = self.graph.n
        return GNNResult(
            features=self.feat_region.data.reshape(n, FEATURE_DIM).copy(),
            aggregated=self.out_region.data.reshape(n, FEATURE_DIM).copy(),
            elapsed_seconds=rt.elapsed_seconds,
            stats=stats,
        )
