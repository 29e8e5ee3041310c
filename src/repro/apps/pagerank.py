"""PageRank on KVMSR+UDWeave (paper §4.1, Listing 3).

Push-based PR exploiting edge-level parallelism: one kv_map task per
(sub-)vertex reads its neighbor list from DRAM in groups of eight and
emits a ``<neighbor, contribution>`` tuple per edge; kv_reduce tasks
accumulate contributions into each vertex through the combining cache
(the software fetch&add), draining to DRAM at the flush phase.  An apply
phase (a second KVMSR job, map-only) folds in the damping term and resets
the accumulators, and a driver thread chains iterations device-side.

Data placement follows §4.1.1: the vertex array and neighbor list are
spread with ``DRAMmalloc(size, 0, NRnodes, 32KB)`` — "a simple default
spreading that ensures high bandwidth access but makes no attempt to
optimize data locality".  ``mem_nodes`` overrides NRnodes for the
Figure 12 placement sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.io import VERTEX_STRIDE_WORDS, vertex_records
from repro.graph.splitting import split_and_shuffle
from repro.kvmsr import (
    ArrayInput,
    CombiningCache,
    DataDrivenBinding,
    KVMSRJob,
    MapTask,
    RangeInput,
    ReduceTask,
    job_of,
)
from repro.machine.stats import SimStats
from repro.udweave import UDThread, UpDownRuntime, event

#: §4.1.1 default data spreading block size.
DEFAULT_BLOCK_SIZE = 32 * 1024

#: §5.2.1: PR splits vertices to a maximum degree of 512.
DEFAULT_MAX_DEGREE = 512


class PRMapTask(MapTask):
    """Listing 3's ``PageRankWorker``: one task per sub-vertex."""

    def __init__(self) -> None:
        super().__init__()
        self.rep = 0
        self.degree = 0
        self.nl_off = 0
        self.contrib = 0.0
        self.loaded = 0

    def kv_map(self, ctx, key, rep, degree, nl_off, orig_degree):
        app = self.job(ctx).payload
        self.rep, self.degree, self.nl_off = rep, degree, nl_off
        if degree == 0:
            self.kv_map_return(ctx)
            return
        self._orig_degree = orig_degree
        # pr_value lives in its own (float) array; fetch it split-phase.
        ctx.send_dram_read(app.pr_region.addr(rep), 1, "got_pr")
        ctx.work(2)
        ctx.yield_()

    @event
    def got_pr(self, ctx, pr_value):
        app = self.job(ctx).payload
        # outgoing contribution uses the *original* total degree so the
        # split yields the correct result for the original graph (§5.2.1)
        self.contrib = app.damping * pr_value / self._orig_degree
        self.loaded = 0
        ctx.send_dram_reads(
            app.nl_region.addr(self.nl_off), self.degree, "returnRead", work=2
        )
        ctx.yield_()

    @event
    def returnRead(self, ctx, *neighbors):
        self.kv_emit_many(ctx, neighbors, self.contrib, work=1)
        self.loaded += len(neighbors)
        if self.loaded == self.degree:
            self.kv_map_return(ctx)
        else:
            ctx.yield_()


class PRReduceTask(ReduceTask):
    """Accumulate contributions via the combining cache (fetch&add)."""

    intrinsic_only = True

    def kv_reduce(self, ctx, key, delta):
        app = self.job(ctx).payload
        app.cache.add(ctx, key, delta)
        self.kv_reduce_return(ctx)

    def kv_flush(self, ctx):
        app = self.job(ctx).payload
        drained = app.cache.flush_to_region(ctx, app.sum_region)
        self.kv_flush_return(ctx, drained)


class PRApplyTask(MapTask):
    """Per-vertex damping fold: ``pr = (1-d)/n + Σ`` and accumulator reset."""

    def kv_map(self, ctx, v):
        self._v = v
        app = self.job(ctx).payload
        ctx.send_dram_read(app.sum_region.addr(v), 1, "got_sum")
        ctx.yield_()

    @event
    def got_sum(self, ctx, acc):
        app = self.job(ctx).payload
        ctx.work(3)
        ctx.send_dram_write(app.pr_region.addr(self._v), [app.base_rank + acc])
        ctx.send_dram_write(app.sum_region.addr(self._v), [0.0])
        self.kv_map_return(ctx)


class PRDriver(UDThread):
    """Chains push + apply KVMSR phases for N iterations, device-side."""

    def __init__(self) -> None:
        self.remaining = 0
        self.cont = None
        self.push_job_id = -1

    @event
    def start(self, ctx, push_job_id, iterations):
        self.cont = ctx.ccont
        self.remaining = iterations
        self.push_job_id = push_job_id
        ctx.ud_print("updown_init")  # the artifact's start marker
        self._push(ctx)

    def _push(self, ctx):
        app = job_of(ctx, self.push_job_id).payload
        app.push_job.launch_from(ctx, ctx.self_evw("push_done"))
        ctx.yield_()

    @event
    def push_done(self, ctx, tasks, emitted, polls, drained):
        app = job_of(ctx, self.push_job_id).payload
        app.apply_job.launch_from(ctx, ctx.self_evw("apply_done"))
        ctx.yield_()

    @event
    def apply_done(self, ctx, tasks, emitted, polls, drained):
        self.remaining -= 1
        if self.remaining > 0:
            self._push(ctx)
        else:
            ctx.ud_print("updown_terminate")  # the artifact's end marker
            ctx.send_event(self.cont)
            ctx.yield_terminate()


@dataclass
class PageRankResult:
    ranks: np.ndarray
    iterations: int
    elapsed_seconds: float
    stats: SimStats
    edges_per_iteration: int

    @property
    def giga_updates_per_second(self) -> float:
        """The paper's GUPS figure of merit (§5.2.1)."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return (
            self.edges_per_iteration * self.iterations / self.elapsed_seconds / 1e9
        )


class PageRankApp:
    """Host-side setup + driver for PageRank on one simulated machine."""

    def __init__(
        self,
        runtime: UpDownRuntime,
        graph: CSRGraph,
        max_degree: int = DEFAULT_MAX_DEGREE,
        damping: float = 0.85,
        mem_nodes: Optional[int] = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        split_seed: int = 0,
        max_inflight: int = 64,
        reduce_placement: str = "hash",
        split=None,
    ) -> None:
        """``reduce_placement`` selects the kv_reduce computation binding:
        ``"hash"`` (the paper's default) or ``"data"`` — the §2.3
        "Data-driven (future)" scheme placing each vertex's reduce on the
        node that owns its accumulator word, so combining-cache flushes
        hit local DRAM.

        ``split`` overrides the built-in ``split_and_shuffle`` with a
        prebuilt :class:`~repro.graph.splitting.SplitGraph` (ablations use
        this to toggle the shuffle)."""
        if reduce_placement not in ("hash", "data"):
            raise ValueError("reduce_placement must be 'hash' or 'data'")
        self.runtime = runtime
        self.graph = graph
        self.damping = damping
        self.split = (
            split
            if split is not None
            else split_and_shuffle(graph, max_degree, seed=split_seed)
        )
        n_orig, n_sub = self.split.n_orig, self.split.n_sub
        self.base_rank = (1.0 - damping) / n_orig

        records = vertex_records(graph, self.split)
        gm = runtime.gmem
        if mem_nodes is None:
            mem_nodes = 1 << (runtime.config.nodes.bit_length() - 1)
        self.gv_region = gm.dram_malloc(
            records.size * 8, 0, mem_nodes, block_size, name="pr_gv"
        )
        self.gv_region[:] = records.ravel()
        self.nl_region = gm.dram_malloc(
            max(8, self.split.graph.m * 8), 0, mem_nodes, block_size, name="pr_nl"
        )
        if self.split.graph.m:
            self.nl_region[: self.split.graph.m] = self.split.graph.neighbors
        self.pr_region = gm.dram_malloc(
            n_orig * 8, 0, mem_nodes, block_size, dtype=np.float64, name="pr_val"
        )
        self.pr_region[:] = 1.0 / n_orig
        self.sum_region = gm.dram_malloc(
            n_orig * 8, 0, mem_nodes, block_size, dtype=np.float64, name="pr_sum"
        )

        reduce_binding = None
        if reduce_placement == "data":
            reduce_binding = DataDrivenBinding(
                runtime.gmem, self.sum_region.addr, runtime.config
            )
        self.push_job = KVMSRJob(
            runtime,
            PRMapTask,
            ArrayInput(self.gv_region, VERTEX_STRIDE_WORDS, n_sub),
            reduce_cls=PRReduceTask,
            reduce_binding=reduce_binding,
            payload=self,
            max_inflight=max_inflight,
            name="pr_push",
        )
        self.apply_job = KVMSRJob(
            runtime,
            PRApplyTask,
            RangeInput(n_orig),
            payload=self,
            max_inflight=max_inflight,
            name="pr_apply",
        )
        self.cache = CombiningCache(f"pr{self.push_job.job_id}")
        runtime.register(PRDriver)

    def run(self, iterations: int = 1, max_events: Optional[int] = None) -> PageRankResult:
        """Simulate ``iterations`` synchronous PR iterations."""
        if iterations < 1:
            raise ValueError("need at least one iteration")
        rt = self.runtime
        rt.start(
            self.push_job.master_lane,
            "PRDriver::start",
            self.push_job.job_id,
            iterations,
            cont=rt.host_evw("pagerank_done"),
        )
        stats = rt.run(max_events=max_events)
        if not rt.host_messages("pagerank_done"):
            raise rt.sim.incomplete("PageRank did not complete")
        return PageRankResult(
            ranks=self.pr_region.data.copy(),
            iterations=iterations,
            elapsed_seconds=rt.elapsed_seconds,
            stats=stats,
            edges_per_iteration=self.split.graph.m,
        )
