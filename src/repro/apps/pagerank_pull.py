"""Pull-based PageRank: the design alternative the paper rejected.

§4.1 chooses a *push* formulation ("each edge propagation is a task").
The pull alternative — every vertex reads its in-neighbors' contributions
— needs no shuffle at all: each map task streams its in-neighbor list and
the contributions array from DRAM and writes its own next value.  The
trade is messages for memory reads:

* push: ~1 network message (emit) + 1 reduce event per edge, combining
  cache absorbs hot destinations;
* pull: ~2 DRAM word-reads per edge (in-neighbor id + its contribution),
  zero shuffle traffic, but hub *sources* get their contribution word
  read by every neighbor — a read hotspot instead of a write one.

``benchmarks/bench_ablation_push_pull.py`` measures the crossover.  The
pull app reuses the same contributions-precompute trick the literature
uses: a do_all phase materializes ``contrib[v] = d * pr[v] / deg(v)`` so
the gather phase reads one word per in-edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.io import VERTEX_STRIDE_WORDS, vertex_records
from repro.kvmsr import ArrayInput, KVMSRJob, MapTask, job_of
from repro.machine.stats import SimStats
from repro.udweave import UDThread, UpDownRuntime, event


class PullContribTask(MapTask):
    """Phase 1 (do_all): contrib[v] = damping * pr[v] / out_degree(v)."""

    def kv_map(self, ctx, key, rep, degree, nl_off, orig_degree):
        app = self.job(ctx).payload
        self._rep, self._odeg = rep, orig_degree
        ctx.send_dram_read(app.pr_region.addr(rep), 1, "got_pr")
        ctx.yield_()

    @event
    def got_pr(self, ctx, pr_value):
        app = self.job(ctx).payload
        contrib = (
            app.damping * pr_value / self._odeg if self._odeg else 0.0
        )
        ctx.work(3)
        ctx.send_dram_write(app.contrib_region.addr(self._rep), [contrib])
        self.kv_map_return(ctx)


class PullGatherTask(MapTask):
    """Phase 2: stream in-neighbors, read their contributions, sum."""

    def __init__(self) -> None:
        super().__init__()
        self._acc = 0.0
        self._reads_left = 0

    def kv_map(self, ctx, key, rep, degree, nl_off, orig_degree):
        app = self.job(ctx).payload
        self._rep = rep
        self._acc = 0.0
        if degree == 0:
            self._store(ctx)
            return
        self._reads_left = ctx.send_dram_reads(
            app.rev_nl_region.addr(nl_off), degree, "got_in_nbrs", work=1
        )
        ctx.yield_()

    @event
    def got_in_nbrs(self, ctx, *in_neighbors):
        app = self.job(ctx).payload
        self._reads_left += len(in_neighbors) - 1  # swap 1 list read for
        for u in in_neighbors:                     # n contribution reads
            ctx.send_dram_read(
                app.contrib_region.addr(u), 1, "got_contrib"
            )
            ctx.work(1)
        ctx.yield_()

    @event
    def got_contrib(self, ctx, contrib):
        self._acc += contrib
        ctx.work(1)
        self._reads_left -= 1
        if self._reads_left == 0:
            self._store(ctx)
        else:
            ctx.yield_()

    def _store(self, ctx) -> None:
        app = self.job(ctx).payload
        ctx.send_dram_write(
            app.pr_region.addr(self._rep), [app.base_rank + self._acc]
        )
        self.kv_map_return(ctx)


class PullDriver(UDThread):
    """contrib phase -> gather phase, per iteration."""

    def __init__(self) -> None:
        self.remaining = 0
        self.cont = None
        self.contrib_job_id = -1

    @event
    def start(self, ctx, contrib_job_id, iterations):
        self.cont = ctx.ccont
        self.remaining = iterations
        self.contrib_job_id = contrib_job_id
        self._contrib(ctx)

    def _contrib(self, ctx):
        app = job_of(ctx, self.contrib_job_id).payload
        app.contrib_job.launch_from(ctx, ctx.self_evw("contrib_done"))
        ctx.yield_()

    @event
    def contrib_done(self, ctx, *ops):
        app = job_of(ctx, self.contrib_job_id).payload
        app.gather_job.launch_from(ctx, ctx.self_evw("gather_done"))
        ctx.yield_()

    @event
    def gather_done(self, ctx, *ops):
        self.remaining -= 1
        if self.remaining > 0:
            self._contrib(ctx)
        else:
            ctx.send_event(self.cont)
            ctx.yield_terminate()


@dataclass
class PullPageRankResult:
    ranks: np.ndarray
    iterations: int
    elapsed_seconds: float
    stats: SimStats


class PullPageRankApp:
    """Pull-formulation PageRank (no shuffle; reads instead of emits).

    No vertex splitting: pull tasks are keyed by *destination*, and the
    hot spot is the contribution word of hub sources — which striping, not
    splitting, addresses.  The gather phase maps over the reverse graph.
    """

    def __init__(
        self,
        runtime: UpDownRuntime,
        graph: CSRGraph,
        damping: float = 0.85,
        mem_nodes: Optional[int] = None,
        block_size: int = 4096,
        max_inflight: int = 64,
    ) -> None:
        self.runtime = runtime
        self.graph = graph
        self.damping = damping
        self.base_rank = (1.0 - damping) / graph.n
        reverse = graph.reversed()
        gm = runtime.gmem
        if mem_nodes is None:
            mem_nodes = 1 << (runtime.config.nodes.bit_length() - 1)
        # forward records carry out-degrees (for contributions)...
        fwd_records = vertex_records(graph)
        self.gv_region = gm.dram_malloc(
            fwd_records.size * 8, 0, mem_nodes, block_size, name="ppr_gv"
        )
        self.gv_region[:] = fwd_records.ravel()
        # ...reverse records carry in-neighbor lists (for gathering)
        rev_records = vertex_records(reverse)
        self.rev_gv_region = gm.dram_malloc(
            rev_records.size * 8, 0, mem_nodes, block_size, name="ppr_rgv"
        )
        self.rev_gv_region[:] = rev_records.ravel()
        self.rev_nl_region = gm.dram_malloc(
            max(8, reverse.m * 8), 0, mem_nodes, block_size, name="ppr_rnl"
        )
        if reverse.m:
            self.rev_nl_region[: reverse.m] = reverse.neighbors
        self.pr_region = gm.dram_malloc(
            graph.n * 8, 0, mem_nodes, block_size, dtype=np.float64,
            name="ppr_val",
        )
        self.pr_region[:] = 1.0 / graph.n
        self.contrib_region = gm.dram_malloc(
            graph.n * 8, 0, mem_nodes, block_size, dtype=np.float64,
            name="ppr_contrib",
        )
        self.contrib_job = KVMSRJob(
            runtime,
            PullContribTask,
            ArrayInput(self.gv_region, VERTEX_STRIDE_WORDS, graph.n),
            payload=self,
            max_inflight=max_inflight,
            name="ppr_contrib",
        )
        self.gather_job = KVMSRJob(
            runtime,
            PullGatherTask,
            ArrayInput(self.rev_gv_region, VERTEX_STRIDE_WORDS, graph.n),
            payload=self,
            max_inflight=max_inflight,
            name="ppr_gather",
        )
        runtime.register(PullDriver)

    def run(
        self, iterations: int = 1, max_events: Optional[int] = None
    ) -> PullPageRankResult:
        if iterations < 1:
            raise ValueError("need at least one iteration")
        rt = self.runtime
        _, stats = rt.call(
            self.contrib_job.master_lane, "PullDriver::start",
            self.contrib_job.job_id, iterations,
            done="pull_pagerank_done", what="pull PageRank",
            max_events=max_events,
        )
        return PullPageRankResult(
            ranks=self.pr_region.data.copy(),
            iterations=iterations,
            elapsed_seconds=rt.elapsed_seconds,
            stats=stats,
        )
