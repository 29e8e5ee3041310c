"""Ablation: the combining cache's traffic reduction (paper footnote 1).

The software fetch&add "caches the value in the scratchpad for high
performance".  Measured directly: write-back (the default — one DRAM write
per distinct key per lane, at flush) vs write-through (one DRAM write per
*update*).  Both are correct under owner-lane serialization; the cache's
value is the DRAM-write collapse, which grows with key skew.
"""

from __future__ import annotations

import pytest

from repro.kvmsr import (
    CombiningCache,
    KVMSRJob,
    MapTask,
    RangeInput,
    ReduceTask,
    job_of,
)
from repro.machine import bench_machine
from repro.udweave import UpDownRuntime

from conftest import run_once

N_UPDATES = 2048
N_KEYS = 32  # heavy key reuse: 64 updates per key on average


class FanMap(MapTask):
    def kv_map(self, ctx, key):
        self.kv_emit(ctx, key % N_KEYS, 1)
        self.kv_map_return(ctx)


class WriteBackReduce(ReduceTask):
    """The paper's scheme: accumulate in scratchpad, one write at flush."""

    def kv_reduce(self, ctx, key, delta):
        app = job_of(ctx, self._job_id).payload
        app["cache"].add(ctx, key, delta)
        self.kv_reduce_return(ctx)

    def kv_flush(self, ctx):
        app = job_of(ctx, self._job_id).payload
        n = app["cache"].flush_to_region(ctx, app["region"])
        self.kv_flush_return(ctx, n)


class WriteThroughReduce(ReduceTask):
    """Strawman: still scratchpad-correct, but writes DRAM per update."""

    def kv_reduce(self, ctx, key, delta):
        app = job_of(ctx, self._job_id).payload
        app["cache"].add(ctx, key, delta)
        total = app["cache"].get(ctx, key)
        ctx.send_dram_write(app["region"].addr(key), [total])
        self.kv_reduce_return(ctx)

    def kv_flush(self, ctx):
        app = job_of(ctx, self._job_id).payload
        app["cache"].flush(ctx, lambda c, k, v: None)
        self.kv_flush_return(ctx, 0)


def _run(reduce_cls, tag):
    rt = UpDownRuntime(bench_machine(nodes=4))
    region = rt.dram_malloc(N_KEYS * 8, name=f"acc_{tag}")
    app = {"region": region, "cache": CombiningCache(f"cc_{tag}")}
    KVMSRJob(
        rt, FanMap, RangeInput(N_UPDATES), reduce_cls=reduce_cls, payload=app
    ).launch()
    stats = rt.run(max_events=5_000_000)
    if tag == "wb":
        assert int(region.data.sum()) == N_UPDATES
    return rt.elapsed_seconds, stats.dram_writes


@pytest.mark.benchmark(group="ablation")
def test_combining_cache_collapses_writes(benchmark, save_results):
    def run_pair():
        wb = _run(WriteBackReduce, "wb")
        wt = _run(WriteThroughReduce, "wt")
        return wb, wt

    (t_wb, writes_wb), (t_wt, writes_wt) = run_once(benchmark, run_pair)
    benchmark.extra_info["write_reduction"] = writes_wt / max(writes_wb, 1)
    text = (
        "Ablation — combining cache (fetch&add), "
        f"{N_UPDATES} updates over {N_KEYS} keys on 4 nodes:\n"
        f"  write-back (paper):  {writes_wb:6} DRAM writes, "
        f"{t_wb * 1e6:8.2f} us\n"
        f"  write-through:       {writes_wt:6} DRAM writes, "
        f"{t_wt * 1e6:8.2f} us\n"
        f"  -> {writes_wt / max(writes_wb, 1):.0f}x fewer writes with the "
        "combining cache (footnote 1's 'high performance')"
    )
    # every update writes once vs <= keys-per-lane at flush
    assert writes_wt >= N_UPDATES
    assert writes_wb <= N_KEYS
    # ... and the collapse is also a speedup: the flush stores split-phase,
    # so the write-back job finishes first (simulated time, deterministic)
    assert t_wb < t_wt
    save_results("ablation_combining", text)
