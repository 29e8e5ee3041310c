"""Breadth-First Search on KVMSR+UDWeave (paper §4.2).

Push BFS in rounds.  Departures from PageRank's flat data parallelism,
exactly as §4.2 describes:

* **kv_map granularity**: one map task per *accelerator*, not per vertex.
  Each map task is a local master that spawns a worker on every lane of
  its accelerator (UDWeave-level master-worker, §4.2.2).
* **Frontier placement**: each lane owns a contiguous frontier segment
  inside a per-node contiguous allocation —
  ``DRAMmalloc(size, 0, NRnodes, size/NRnodes)`` (§4.2.1) — giving data
  locality for reading the current frontier and writing the next one.
  Two buffers alternate by round parity.
* **Reduce**: unmarked neighbors are marked (distance + parent written)
  and their sub-vertices appended to the *reduce lane's own* next-frontier
  segment.  The Hash binding spreads vertices over lanes, so the local
  frontiers stay balanced.  Duplicate suppression uses an owner-lane
  scratchpad "seen" set — all reduces for a vertex serialize on one lane,
  so no global atomics are needed.

The flush-phase value channel reports how many vertices were appended;
the device-side driver ends the search when a round appends nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.io import VERTEX_STRIDE_WORDS, vertex_records
from repro.graph.splitting import split_and_shuffle
from repro.kvmsr import (
    KeyToLaneBinding,
    KVMSRJob,
    MapTask,
    RangeInput,
    ReduceTask,
    emit_to_reduce_many,
    job_of,
)
from repro.machine.stats import SimStats
from repro.udweave import UDThread, UpDownRuntime, event

DEFAULT_BLOCK_SIZE = 32 * 1024

#: §5.2 / artifact: BFS splits vertices to a maximum degree of 4096.
DEFAULT_MAX_DEGREE = 4096


def _next_pow2(x: int) -> int:
    return 1 << max(0, (x - 1).bit_length())


class BFSWorker(UDThread):
    """Processes one lane's current-frontier segment; emits neighbors."""

    def __init__(self) -> None:
        self.job_id = -1
        self.report = None
        self.round = 0
        self.emitted = 0
        self.chunks_left = 0
        self.vertices_left = 0
        self.vstate: Dict[int, list] = {}
        self._next_vkey = 0

    @event
    def start(self, ctx, job_id, round_no, report_evw):
        self.job_id, self.round, self.report = job_id, round_no, report_evw
        app = job_of(ctx, job_id).payload
        parity = round_no & 1
        count = ctx.sp_read(("bfsc", app.uid, parity), 0)
        ctx.sp_write(("bfsc", app.uid, parity), 0)  # consumed
        if count == 0:
            self._finish(ctx)
            return
        self.vertices_left = count
        base = ctx.network_id * app.frontier_cap
        region = app.frontier_regions[parity]
        self.chunks_left = ctx.send_dram_reads(
            region.addr(base), count, "got_frontier", work=2
        )
        ctx.yield_()

    @event
    def got_frontier(self, ctx, *subs):
        app = job_of(ctx, self.job_id).payload
        self.chunks_left -= 1
        for s in subs:
            ctx.send_dram_read(
                app.gv_region.addr(VERTEX_STRIDE_WORDS * s),
                VERTEX_STRIDE_WORDS,
                "got_vertex",
            )
            ctx.work(1)
        ctx.yield_()

    @event
    def got_vertex(self, ctx, rep, degree, nl_off, orig_degree):
        app = job_of(ctx, self.job_id).payload
        if degree == 0:
            self.vertices_left -= 1
            self._maybe_finish(ctx)
            return
        state = [rep, degree]  # [parent id, neighbors outstanding]
        key = self._next_vkey
        self._next_vkey += 1
        self.vstate[key] = state
        ctx.send_dram_reads(
            app.nl_region.addr(nl_off), degree, "got_neighbors", tag=key,
            work=1,
        )
        ctx.yield_()

    @event
    def got_neighbors(self, ctx, key, _offset, *neighbors):
        app = job_of(ctx, self.job_id).payload
        state = self.vstate[key]
        depth = self.round + 1
        emit_to_reduce_many(ctx, self.job_id, neighbors, state[0], depth)
        self.emitted += len(neighbors)
        state[1] -= len(neighbors)
        if state[1] == 0:
            del self.vstate[key]
            self.vertices_left -= 1
        self._maybe_finish(ctx)

    def _maybe_finish(self, ctx) -> None:
        if self.vertices_left == 0 and self.chunks_left == 0:
            self._finish(ctx)
        else:
            ctx.yield_()

    def _finish(self, ctx) -> None:
        ctx.send_event(self.report, self.emitted)
        ctx.yield_terminate()


class BFSAccelMaster(MapTask):
    """One kv_map task per accelerator: the local master (§4.2.2)."""

    def __init__(self) -> None:
        super().__init__()
        self.pending = 0

    def kv_map(self, ctx, accel):
        cfg = ctx.config
        app = job_of(ctx, self._job_id).payload
        # Round number lives in the master lane's scratchpad, not in the
        # shared app object: each launch is one round, and in-simulation
        # state is what conservative sharding replicates correctly.
        round_key = ("bfsr", app.uid)
        round_no = ctx.sp_read(round_key, 0)
        ctx.sp_write(round_key, round_no + 1)
        first = ctx.config.first_lane_of_accel(accel)
        self.pending = cfg.lanes_per_accel
        report = ctx.self_evw("worker_done")
        for lane in range(first, first + cfg.lanes_per_accel):
            ctx.spawn(
                lane, "BFSWorker::start", self._job_id, round_no, report
            )
            ctx.work(2)
        ctx.yield_()

    @event
    def worker_done(self, ctx, n_emitted):
        self.add_emitted(n_emitted)
        self.pending -= 1
        if self.pending == 0:
            self.kv_map_return(ctx)
        else:
            ctx.yield_()


class BFSReduce(ReduceTask):
    """Mark-and-append: the frontier insert of §4.2.2."""

    intrinsic_only = True

    def __init__(self) -> None:
        super().__init__()
        self.u = -1
        self.depth = 0
        self.subs_left = 0

    def kv_reduce(self, ctx, u, parent, depth):
        app = self.job(ctx).payload
        self.depth = depth
        if ctx.sp_once(("bfss", app.uid, u)):
            # already visited (9 in 10 tuples): the arm batched
            # dispatch lowers behind the emit-time once-guard
            ctx.work(1)
            self.kv_reduce_return(ctx)
            return
        ctx.send_dram_write(app.dist_region.addr(u), [depth])
        ctx.send_dram_write(app.parent_region.addr(u), [parent])
        self.u = u
        ctx.send_dram_read(app.subs_off_region.addr(u), 2, "got_range")
        ctx.yield_()

    @event
    def got_range(self, ctx, lo, hi):
        app = self.job(ctx).payload
        if lo == hi:
            self.kv_reduce_return(ctx)
            return
        self.subs_left = hi - lo
        ctx.send_dram_reads(
            app.sub_ids_region.addr(lo), hi - lo, "got_subs", work=1
        )
        ctx.yield_()

    @event
    def got_subs(self, ctx, *subs):
        app = self.job(ctx).payload
        # the next frontier's parity: depth == round + 1 already names it
        parity = self.depth & 1
        count_key = ("bfsc", app.uid, parity)
        count = ctx.sp_read(count_key, 0)
        region = app.frontier_regions[parity]
        base = ctx.network_id * app.frontier_cap
        for s in subs:
            if count >= app.frontier_cap:
                raise RuntimeError(
                    f"frontier segment overflow on lane {ctx.network_id} "
                    f"(cap {app.frontier_cap})"
                )
            ctx.send_dram_write(region.addr(base + count), [s])
            count += 1
            ctx.work(1)
        ctx.sp_write(count_key, count)
        appended_key = ("bfsa", app.uid)
        ctx.sp_write(appended_key, ctx.sp_read(appended_key, 0) + len(subs))
        self.subs_left -= len(subs)
        if self.subs_left == 0:
            self.kv_reduce_return(ctx)
        else:
            ctx.yield_()

    def kv_flush(self, ctx):
        app = self.job(ctx).payload
        appended = ctx.sp_read(("bfsa", app.uid), 0)
        ctx.sp_write(("bfsa", app.uid), 0)
        self.kv_flush_return(ctx, appended)


class BFSDriver(UDThread):
    """Round loop: relaunch until a round appends nothing."""

    def __init__(self) -> None:
        self.job_id = -1
        self.cont = None
        self.rounds = 0
        self.traversed = 0

    @event
    def start(self, ctx, job_id):
        self.job_id = job_id
        self.cont = ctx.ccont
        app = job_of(ctx, job_id).payload
        app.round = 0
        ctx.ud_print("BFS Start")
        job_of(ctx, job_id).launch_from(ctx, ctx.self_evw("round_done"))
        ctx.yield_()

    @event
    def round_done(self, ctx, tasks, emitted, polls, appended):
        app = job_of(ctx, self.job_id).payload
        self.rounds += 1
        self.traversed += emitted
        ctx.ud_print(
            f"[Itera {app.round}]: add queue {appended} "
            f"traversed edges {emitted}"
        )
        if appended == 0:
            ctx.ud_print("BFS finish")
            ctx.send_event(self.cont, self.rounds, self.traversed)
            ctx.yield_terminate()
        else:
            app.round += 1
            ctx.ud_print("BFS Start")
            job_of(ctx, self.job_id).launch_from(
                ctx, ctx.self_evw("round_done")
            )
            ctx.yield_()


@dataclass
class BFSResult:
    distances: np.ndarray
    parents: np.ndarray
    rounds: int
    traversed_edges: int
    elapsed_seconds: float
    stats: SimStats

    @property
    def giga_teps(self) -> float:
        """Giga traversed-edges per second (§5.2.2's figure of merit)."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.traversed_edges / self.elapsed_seconds / 1e9


class BFSApp:
    """Host-side setup + driver for BFS on one simulated machine."""

    def __init__(
        self,
        runtime: UpDownRuntime,
        graph: CSRGraph,
        max_degree: int = DEFAULT_MAX_DEGREE,
        mem_nodes: Optional[int] = None,
        frontier_mem_nodes: Optional[int] = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        split_seed: int = 0,
        frontier_cap: Optional[int] = None,
    ) -> None:
        self.runtime = runtime
        self.graph = graph
        cfg = runtime.config
        self.split = split_and_shuffle(graph, max_degree, seed=split_seed)
        n_orig, n_sub = self.split.n_orig, self.split.n_sub
        self.round = 0

        gm = runtime.gmem
        if mem_nodes is None:
            mem_nodes = 1 << (cfg.nodes.bit_length() - 1)

        records = vertex_records(graph, self.split)
        self.gv_region = gm.dram_malloc(
            records.size * 8, 0, mem_nodes, block_size, name="bfs_gv"
        )
        self.gv_region[:] = records.ravel()
        self.nl_region = gm.dram_malloc(
            max(8, self.split.graph.m * 8), 0, mem_nodes, block_size,
            name="bfs_nl",
        )
        if self.split.graph.m:
            self.nl_region[: self.split.graph.m] = self.split.graph.neighbors
        self.dist_region = gm.dram_malloc(
            n_orig * 8, 0, mem_nodes, block_size, name="bfs_dist"
        )
        self.dist_region[:] = -1
        self.parent_region = gm.dram_malloc(
            n_orig * 8, 0, mem_nodes, block_size, name="bfs_parent"
        )
        self.parent_region[:] = -1
        self.subs_off_region = gm.dram_malloc(
            (n_orig + 1) * 8, 0, mem_nodes, block_size, name="bfs_subs_off"
        )
        self.subs_off_region[:] = self.split.subs_offsets
        self.sub_ids_region = gm.dram_malloc(
            max(8, n_sub * 8), 0, mem_nodes, block_size, name="bfs_sub_ids"
        )
        self.sub_ids_region[: n_sub] = self.split.sub_ids

        # Frontier: per-lane segments, contiguous per node (§4.2.1's
        # DRAMmalloc(size, 0, NRnodes, size/NRnodes) locality layout).
        total_lanes = cfg.total_lanes
        if frontier_cap is None:
            frontier_cap = max(16, _next_pow2(-(-4 * n_sub // total_lanes)))
        self.frontier_cap = frontier_cap
        fsize = total_lanes * frontier_cap * 8
        # one per-node slice per block keeps each lane's segment on its own
        # node; nr_nodes must be a power of two, so non-power-of-two
        # machines round DOWN (the spill nodes lose locality, not
        # correctness)
        fblock = max(
            cfg.min_dram_block_bytes, cfg.lanes_per_node * frontier_cap * 8
        )
        fnodes = frontier_mem_nodes or cfg.nodes
        fnodes = 1 << (fnodes.bit_length() - 1)
        self.frontier_regions = [
            gm.dram_malloc(fsize, 0, fnodes, fblock, name=f"bfs_frontier{p}")
            for p in (0, 1)
        ]

        self.job = KVMSRJob(
            runtime,
            BFSAccelMaster,
            RangeInput(cfg.total_accels),
            reduce_cls=BFSReduce,
            map_binding=KeyToLaneBinding(cfg.first_lane_of_accel),
            payload=self,
            name="bfs_round",
        )
        self.uid = self.job.job_id
        runtime.register(BFSWorker)
        runtime.register(BFSDriver)

    # ------------------------------------------------------------------

    def _seed(self, root: int) -> None:
        """Pre-load the round-0 frontier with the root's sub-vertices
        (memory-image initialization, like the artifact's host program)."""
        self.dist_region[root] = 0
        self.parent_region[root] = root
        owner = self.job.reduce_binding.lane_for(root, self.job.reduce_lanes)
        subs = self.split.subs_of(root)
        base = owner * self.frontier_cap
        if len(subs) > self.frontier_cap:
            raise RuntimeError("frontier capacity too small for the root")
        self.frontier_regions[0][base : base + len(subs)] = subs
        lane = self.runtime.sim.lane(owner)
        lane.scratchpad[("bfsc", self.uid, 0)] = len(subs)
        lane.scratchpad[("bfss", self.uid, root)] = True

    def run(self, root: int = 0, max_events: Optional[int] = None) -> BFSResult:
        if not (0 <= root < self.split.n_orig):
            raise ValueError(f"root {root} out of range")
        rt = self.runtime
        self._seed(root)
        rt.start(
            self.job.master_lane,
            "BFSDriver::start",
            self.job.job_id,
            cont=rt.host_evw("bfs_done"),
        )
        stats = rt.run(max_events=max_events)
        done = rt.host_messages("bfs_done")
        if not done:
            raise rt.sim.incomplete("BFS did not complete")
        rounds, traversed = done[-1].operands
        return BFSResult(
            distances=self.dist_region.data.copy(),
            parents=self.parent_region.data.copy(),
            rounds=rounds,
            traversed_edges=traversed,
            elapsed_seconds=rt.elapsed_seconds,
            stats=stats,
        )
