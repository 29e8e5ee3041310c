"""Histogram bins: the §2.2 example of a shared mutable abstraction.

A KVMSR job over a values array: map tasks emit ``<bin, 1>`` per value,
reduces accumulate through the combining cache, and the flush drains the
per-lane bin counters into a counts region.  Bin semantics match
``numpy.histogram`` with uniform bins over ``[lo, hi]`` (right-inclusive
last bin), which is what the validation tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
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


class HistMapTask(MapTask):
    def kv_map(self, ctx, key, value):
        app = self.job(ctx).payload
        ctx.work(3)  # subtract, scale, clamp
        self.kv_emit(ctx, app.bin_of(value), 1)
        self.kv_map_return(ctx)


class HistReduceTask(ReduceTask):
    intrinsic_only = True

    def kv_reduce(self, ctx, bin_id, one):
        app = self.job(ctx).payload
        app.cache.add(ctx, bin_id, one)
        self.kv_reduce_return(ctx)

    def kv_flush(self, ctx):
        app = self.job(ctx).payload
        drained = app.cache.flush_to_region(ctx, app.counts_region)
        self.kv_flush_return(ctx, drained)


@dataclass
class HistogramResult:
    counts: np.ndarray
    edges: np.ndarray
    elapsed_seconds: float
    stats: SimStats


class HistogramApp:
    """Bin a global-memory values array into ``nbins`` uniform bins."""

    def __init__(
        self,
        runtime: UpDownRuntime,
        values: np.ndarray,
        nbins: int,
        lo: Optional[float] = None,
        hi: Optional[float] = None,
        block_size: int = 4096,
    ) -> None:
        values = np.asarray(values, dtype=np.int64)
        if len(values) == 0:
            raise ValueError("cannot histogram an empty array")
        if nbins < 1:
            raise ValueError("need at least one bin")
        self.runtime = runtime
        self.nbins = nbins
        self.lo = int(values.min() if lo is None else lo)
        self.hi = int(values.max() if hi is None else hi)
        if self.hi <= self.lo:
            self.hi = self.lo + 1
        gm = runtime.gmem
        self.values_region = gm.dram_malloc(
            len(values) * 8, block_size=block_size, name=f"hist_vals{id(self) & 0xffff}"
        )
        self.values_region[:] = values
        self.counts_region = gm.dram_malloc(
            nbins * 8, block_size=block_size, name=f"hist_counts{id(self) & 0xffff}"
        )
        self.job = KVMSRJob(
            runtime,
            HistMapTask,
            ArrayInput(self.values_region, 1, len(values)),
            reduce_cls=HistReduceTask,
            payload=self,
            name="histogram",
        )
        self.cache = CombiningCache(f"hist{self.job.job_id}")

    def bin_of(self, value: int) -> int:
        """numpy.histogram-compatible uniform binning."""
        span = self.hi - self.lo
        b = (value - self.lo) * self.nbins // span
        return min(max(b, 0), self.nbins - 1)

    def run(self, max_events: Optional[int] = None) -> HistogramResult:
        rt = self.runtime
        _, stats = self.job.run(
            "hist_done", "histogram", max_events=max_events
        )
        edges = np.linspace(self.lo, self.hi, self.nbins + 1)
        return HistogramResult(
            counts=self.counts_region.data.copy(),
            edges=edges,
            elapsed_seconds=rt.elapsed_seconds,
            stats=stats,
        )
