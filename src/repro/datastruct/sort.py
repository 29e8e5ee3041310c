"""Scalable Global Sort (paper Table 5: 158 LoC) — two KVMSR phases.

Distribution sort in the KVMSR idiom:

1. **Count**: map over the input array, emit ``<bucket, 1>``; reduces
   accumulate per-bucket counts (combining cache) and flush them to a
   counts region.
2. Host (TOP-core) step: exclusive prefix sum over the counts gives each
   bucket its output offset — the artifact's host programs do exactly this
   kind of inter-phase glue.
3. **Scatter**: map over the input again, emit ``<bucket, value>``;
   each bucket's owner lane buffers its values in scratchpad, then at
   flush sorts the bucket locally (``k log k`` charged) and writes it to
   its output slice.

Buckets partition the value range uniformly; the Hash reduce binding
spreads buckets over lanes.  The output is globally sorted because bucket
ranges are ordered and each bucket is sorted locally.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2
from typing import Optional

import numpy as np

from repro.kvmsr import (
    ArrayInput,
    CombiningCache,
    KVMSRJob,
    MapTask,
    ReduceTask,
    job_of,
)
from repro.machine.stats import SimStats
from repro.udweave import UpDownRuntime


class SortCountTask(MapTask):
    def kv_map(self, ctx, key, value):
        app = self.job(ctx).payload
        ctx.work(3)
        self.kv_emit(ctx, app.bucket_of(value), 1)
        self.kv_map_return(ctx)


class SortCountReduce(ReduceTask):
    intrinsic_only = True

    def kv_reduce(self, ctx, bucket, one):
        app = self.job(ctx).payload
        app.cache.add(ctx, bucket, one)
        self.kv_reduce_return(ctx)

    def kv_flush(self, ctx):
        app = self.job(ctx).payload
        drained = app.cache.flush_to_region(ctx, app.counts_region)
        self.kv_flush_return(ctx, drained)


class SortScatterTask(MapTask):
    def kv_map(self, ctx, key, value):
        app = self.job(ctx).payload
        ctx.work(3)
        self.kv_emit(ctx, app.bucket_of(value), value)
        self.kv_map_return(ctx)


class SortScatterReduce(ReduceTask):
    def kv_reduce(self, ctx, bucket, value):
        app = self.job(ctx).payload
        key = ("sortb", app.uid, bucket)
        items = ctx.sp_read(key)
        if items is None:
            items = []
            owned = ctx.sp_read(("sortk", app.uid), None)
            if owned is None:
                owned = []
            owned.append(bucket)
            ctx.sp_write(("sortk", app.uid), owned)
        items.append(value)
        ctx.sp_write(key, items)
        ctx.work(2)
        self.kv_reduce_return(ctx)

    def kv_flush(self, ctx):
        app = self.job(ctx).payload
        owned = ctx.sp_read(("sortk", app.uid), None) or []
        written = 0
        for bucket in owned:
            items = ctx.sp_read(("sortb", app.uid, bucket)) or []
            items.sort()
            k = len(items)
            ctx.work(int(k * max(1.0, log2(max(k, 2)))))
            base = app.offsets[bucket]
            for i in range(0, k, 8):
                chunk = items[i : i + 8]
                ctx.send_dram_write(
                    app.output_region.addr(base + i), chunk
                )
            written += k
            ctx.sp_write(("sortb", app.uid, bucket), None)
        ctx.sp_write(("sortk", app.uid), [])
        self.kv_flush_return(ctx, written)


@dataclass
class SortResult:
    output: np.ndarray
    elapsed_seconds: float
    stats: SimStats


class GlobalSortApp:
    """Sort a host array of int64 on the simulated machine."""

    def __init__(
        self,
        runtime: UpDownRuntime,
        values: np.ndarray,
        nbuckets: Optional[int] = None,
        block_size: int = 4096,
    ) -> None:
        values = np.asarray(values, dtype=np.int64)
        if len(values) == 0:
            raise ValueError("cannot sort an empty array")
        self.runtime = runtime
        self.n = len(values)
        self.nbuckets = nbuckets or max(4, runtime.config.total_lanes)
        self.lo = int(values.min())
        self.hi = int(values.max()) + 1
        gm = runtime.gmem
        uid = id(self) & 0xFFFF
        self.input_region = gm.dram_malloc(
            self.n * 8, block_size=block_size, name=f"sort_in{uid}"
        )
        self.input_region[:] = values
        self.output_region = gm.dram_malloc(
            self.n * 8, block_size=block_size, name=f"sort_out{uid}"
        )
        self.counts_region = gm.dram_malloc(
            self.nbuckets * 8, block_size=block_size, name=f"sort_cnt{uid}"
        )
        self.count_job = KVMSRJob(
            runtime,
            SortCountTask,
            ArrayInput(self.input_region, 1, self.n),
            reduce_cls=SortCountReduce,
            payload=self,
            name="sort_count",
        )
        self.scatter_job = KVMSRJob(
            runtime,
            SortScatterTask,
            ArrayInput(self.input_region, 1, self.n),
            reduce_cls=SortScatterReduce,
            payload=self,
            name="sort_scatter",
        )
        self.cache = CombiningCache(f"sort{self.count_job.job_id}")
        self.uid = self.count_job.job_id
        self.offsets: Optional[np.ndarray] = None

    def bucket_of(self, value: int) -> int:
        span = self.hi - self.lo
        b = (value - self.lo) * self.nbuckets // span
        return min(max(b, 0), self.nbuckets - 1)

    def run(self, max_events: Optional[int] = None) -> SortResult:
        rt = self.runtime
        self.count_job.run(
            "sort_count_done", "sort count phase", max_events=max_events
        )
        counts = self.counts_region.data
        self.offsets = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(
            np.int64
        )
        _, stats2 = self.scatter_job.run(
            "sort_scatter_done", "sort scatter phase", max_events=max_events
        )
        return SortResult(
            output=self.output_region.data.copy(),
            elapsed_seconds=rt.elapsed_seconds,
            stats=stats2,
        )
