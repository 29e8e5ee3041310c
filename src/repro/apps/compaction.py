"""Graph Compaction — Table 3 ("doAll, kvmap").

Removes dead vertices from a vertex array, producing a densely packed
array and the old→new ID mapping.  Two KVMSR phases with a host (TOP-core)
prefix-sum between them, the same multi-phase idiom as the global sort:

1. **Count**: map over ID blocks, each task counts its block's live
   vertices and emits ``<block, count>``; reduces store the counts.
2. Host: exclusive prefix sum over block counts = each block's output base.
3. **Scatter**: map over blocks again; each task walks its block and
   writes each live vertex's record to the next output slot, plus the
   old→new mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.kvmsr import KVMSRJob, MapTask, RangeInput, ReduceTask, job_of
from repro.machine.stats import SimStats
from repro.udweave import MAX_DRAM_READ_WORDS, UpDownRuntime, event


class CountLiveTask(MapTask):
    def kv_map(self, ctx, block):
        app = self.job(ctx).payload
        self._block = block
        self._lo, self._hi = app.block_range(block)
        self._count = 0
        self._next = self._lo
        self._read(ctx)

    def _read(self, ctx):
        app = self.job(ctx).payload
        if self._next >= self._hi:
            self.kv_emit(ctx, self._block, self._count)
            self.kv_map_return(ctx)
            return
        k = min(MAX_DRAM_READ_WORDS, self._hi - self._next)
        ctx.send_dram_read(app.alive_region.addr(self._next), k, "got_flags")
        ctx.yield_()

    @event
    def got_flags(self, ctx, *flags):
        self._count += sum(1 for f in flags if f)
        ctx.work(len(flags))
        self._next += len(flags)
        self._read(ctx)


class StoreCountReduce(ReduceTask):
    def kv_reduce(self, ctx, block, count):
        app = self.job(ctx).payload
        ctx.send_dram_write(app.counts_region.addr(block), [count])
        self.kv_reduce_return(ctx)


class ScatterTask(MapTask):
    def kv_map(self, ctx, block):
        app = self.job(ctx).payload
        self._lo, self._hi = app.block_range(block)
        self._out = int(app.offsets[block])
        self._next = self._lo
        self._read(ctx)

    def _read(self, ctx):
        app = self.job(ctx).payload
        if self._next >= self._hi:
            self.kv_map_return(ctx)
            return
        k = min(MAX_DRAM_READ_WORDS, self._hi - self._next)
        ctx.send_dram_read(app.alive_region.addr(self._next), k, "got_flags")
        ctx.yield_()

    @event
    def got_flags(self, ctx, *flags):
        app = self.job(ctx).payload
        for i, alive in enumerate(flags):
            vid = self._next + i
            ctx.work(2)
            if alive:
                ctx.send_dram_write(app.out_region.addr(self._out), [vid])
                ctx.send_dram_write(app.mapping_region.addr(vid), [self._out])
                self._out += 1
        self._next += len(flags)
        self._read(ctx)


@dataclass
class CompactionResult:
    compacted: np.ndarray
    mapping: np.ndarray
    live: int
    elapsed_seconds: float
    stats: SimStats


class CompactionApp:
    """Compact a vertex ID space given a liveness mask."""

    def __init__(
        self,
        runtime: UpDownRuntime,
        alive: np.ndarray,
        block_vertices: int = 64,
        name: str = "compact",
    ) -> None:
        alive = np.asarray(alive).astype(np.int64)
        if len(alive) == 0:
            raise ValueError("empty vertex set")
        self.runtime = runtime
        self.n = len(alive)
        self.block_vertices = block_vertices
        self.n_blocks = -(-self.n // block_vertices)
        gm = runtime.gmem
        self.alive_region = gm.dram_malloc(self.n * 8, name=f"{name}_alive")
        self.alive_region[:] = alive
        self.counts_region = gm.dram_malloc(
            self.n_blocks * 8, name=f"{name}_counts"
        )
        self.out_region = gm.dram_malloc(
            max(8, int(alive.sum()) * 8), name=f"{name}_out"
        )
        self.mapping_region = gm.dram_malloc(self.n * 8, name=f"{name}_map")
        self.mapping_region[:] = -1
        self.count_job = KVMSRJob(
            runtime,
            CountLiveTask,
            RangeInput(self.n_blocks),
            reduce_cls=StoreCountReduce,
            payload=self,
            name=f"{name}_count",
        )
        self.scatter_job = KVMSRJob(
            runtime,
            ScatterTask,
            RangeInput(self.n_blocks),
            payload=self,
            name=f"{name}_scatter",
        )
        self.offsets: Optional[np.ndarray] = None

    def block_range(self, block: int):
        lo = block * self.block_vertices
        return lo, min(lo + self.block_vertices, self.n)

    def run(self, max_events: Optional[int] = None) -> CompactionResult:
        rt = self.runtime
        self.count_job.run(
            "compact_count_done", "compaction count", max_events=max_events
        )
        counts = self.counts_region.data
        self.offsets = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(
            np.int64
        )
        live = int(counts.sum())
        _, stats = self.scatter_job.run(
            "compact_scatter_done", "compaction scatter", max_events=max_events
        )
        return CompactionResult(
            compacted=self.out_region.data[:live].copy(),
            mapping=self.mapping_region.data.copy(),
            live=live,
            elapsed_seconds=rt.elapsed_seconds,
            stats=stats,
        )
