"""Triangle Counting on KVMSR+UDWeave (paper §4.3).

kv_map tasks run over all vertices, each enumerating the edges
``<v_x, v_y>`` with ``x > y`` (avoiding double counting); each pair becomes
a kv_reduce task — placed by a Hash binding over the *combination* of the
vertex names — that streams both neighbor lists from DRAM and counts
common neighbors ``z < y``, so each triangle ``z < y < x`` is counted
exactly once.

This is the paper's second TC version: "streams both neighbor lists in the
reduce function, consuming more memory bandwidth but improving load
balance" (§4.3.3) — the scratchpad-reuse variant was abandoned.  The map
phase defaults to Block binding; pass ``pbmw=True`` for the PBMW variant
(§4.3.3's skew-robust alternative).

The per-lane triangle counters are the paper's example of shared mutable
state; totals return through the flush-phase value channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.graph.csr import CSRGraph
from repro.graph.io import VERTEX_STRIDE_WORDS, vertex_records
from repro.kvmsr import (
    ArrayInput,
    KVMSRJob,
    MapTask,
    PBMWBinding,
    ReduceTask,
    job_of,
)
from repro.machine.stats import SimStats
from repro.udweave import UpDownRuntime, event

DEFAULT_BLOCK_SIZE = 32 * 1024


class TCMapTask(MapTask):
    """Enumerate edge pairs with x > y (vertex parallelism, §4.3.2)."""

    def __init__(self) -> None:
        super().__init__()
        self.x = -1
        self.left = 0

    def kv_map(self, ctx, key, rep, degree, nl_off, orig_degree):
        app = self.job(ctx).payload
        self.x = rep
        if degree == 0:
            self.kv_map_return(ctx)
            return
        self.left = degree
        ctx.send_dram_reads(
            app.nl_region.addr(nl_off), degree, "got_nbrs", work=2
        )
        ctx.yield_()

    @event
    def got_nbrs(self, ctx, *neighbors):
        for y in neighbors:
            ctx.work(1)
            if y < self.x:
                self.kv_emit(ctx, (self.x, int(y)))
        self.left -= len(neighbors)
        if self.left == 0:
            self.kv_map_return(ctx)
        else:
            ctx.yield_()


class TCReduceTask(ReduceTask):
    """Neighbor-list intersection for one edge pair (§4.3.2).

    K-truss (``repro.apps.ktruss``) reuses the pair fetch and the
    sorted merge; it counts every common neighbor
    (``only_below_y = False``) and files the count its own way
    (``_tally``).
    """

    #: TC counts each triangle ``z < y < x`` once, at its (x, y) pair,
    #: so only common neighbors below ``y`` count.
    only_below_y = True

    def __init__(self) -> None:
        super().__init__()
        self.x = -1
        self.y = -1
        self.meta: Dict[str, tuple] = {}
        self.chunks: Dict[tuple, tuple] = {}
        self.chunks_left = 0

    def kv_reduce(self, ctx, key):
        app = self.job(ctx).payload
        self.x, self.y = key
        # degree + neighbor-list offset are words 1..2 of the vertex record
        gv = app.gv_region
        ctx.send_dram_read(
            gv.addr(VERTEX_STRIDE_WORDS * self.x + 1), 2, "got_rec", tag="x"
        )
        ctx.send_dram_read(
            gv.addr(VERTEX_STRIDE_WORDS * self.y + 1), 2, "got_rec", tag="y"
        )
        ctx.yield_()

    @event
    def got_rec(self, ctx, tag, degree, nl_off):
        self.meta[tag] = (degree, nl_off)
        if len(self.meta) < 2:
            ctx.yield_()
            return
        nl = self.job(ctx).payload.nl_region
        self.chunks_left = 0
        for which in ("x", "y"):
            deg, off = self.meta[which]
            if deg:
                self.chunks_left += ctx.send_dram_reads(
                    nl.addr(off), deg, "got_chunk", tag=which, work=1
                )
        if self.chunks_left == 0:
            # Both endpoints isolated — impossible for a real edge, but
            # degrade gracefully for hand-built inputs.
            self._count(ctx)
        else:
            ctx.yield_()

    @event
    def got_chunk(self, ctx, which, i, *values):
        self.chunks[(which, i)] = values
        self.chunks_left -= 1
        if self.chunks_left == 0:
            self._count(ctx)
        else:
            ctx.yield_()

    def _count(self, ctx) -> None:
        nx = [
            v
            for (w, i) in sorted(self.chunks)
            if w == "x"
            for v in self.chunks[(w, i)]
        ]
        ny = [
            v
            for (w, i) in sorted(self.chunks)
            if w == "y"
            for v in self.chunks[(w, i)]
        ]
        # sorted-merge intersection over the z < bound prefixes
        count = 0
        i = j = 0
        bound = self.y if self.only_below_y else math.inf
        while i < len(nx) and j < len(ny) and nx[i] < bound and ny[j] < bound:
            if nx[i] == ny[j]:
                count += 1
                i += 1
                j += 1
            elif nx[i] < ny[j]:
                i += 1
            else:
                j += 1
        ctx.work(i + j + 2)
        self._tally(ctx, count)

    def _tally(self, ctx, count: int) -> None:
        if count:
            key = ("tcc", self.job(ctx).payload.uid)
            ctx.sp_write(key, ctx.sp_read(key, 0) + count)
        self.kv_reduce_return(ctx)

    def kv_flush(self, ctx):
        app = self.job(ctx).payload
        key = ("tcc", app.uid)
        total = ctx.sp_read(key, 0)
        ctx.sp_write(key, 0)
        self.kv_flush_return(ctx, total)


@dataclass
class TriangleCountResult:
    triangles: int
    elapsed_seconds: float
    stats: SimStats


class TriangleCountApp:
    """Host-side setup + driver for TC on one simulated machine."""

    def __init__(
        self,
        runtime: UpDownRuntime,
        graph: CSRGraph,
        mem_nodes: Optional[int] = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        pbmw: bool = False,
        max_inflight: int = 64,
    ) -> None:
        self.runtime = runtime
        self.graph = graph
        gm = runtime.gmem
        if mem_nodes is None:
            mem_nodes = 1 << (runtime.config.nodes.bit_length() - 1)
        records = vertex_records(graph)
        self.gv_region = gm.dram_malloc(
            records.size * 8, 0, mem_nodes, block_size, name="tc_gv"
        )
        self.gv_region[:] = records.ravel()
        self.nl_region = gm.dram_malloc(
            max(8, graph.m * 8), 0, mem_nodes, block_size, name="tc_nl"
        )
        if graph.m:
            self.nl_region[: graph.m] = graph.neighbors
        self.job = KVMSRJob(
            runtime,
            TCMapTask,
            ArrayInput(self.gv_region, VERTEX_STRIDE_WORDS, graph.n),
            reduce_cls=TCReduceTask,
            map_binding=PBMWBinding() if pbmw else None,
            payload=self,
            max_inflight=max_inflight,
            name="tc",
        )
        self.uid = self.job.job_id

    def run(self, max_events: Optional[int] = None) -> TriangleCountResult:
        rt = self.runtime
        self.job.launch(cont_tag="tc_done")
        stats = rt.run(max_events=max_events)
        done = rt.host_messages("tc_done")
        if not done:
            raise rt.sim.incomplete("TC did not complete")
        _tasks, _emitted, _polls, triangles = done[-1].operands
        return TriangleCountResult(
            triangles=int(triangles),
            elapsed_seconds=rt.elapsed_seconds,
            stats=stats,
        )
