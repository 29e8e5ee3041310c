"""Exact Match: bulk key probes against a scalable hash table — Table 3
("doAll using kvmap", reduce for synchronization/counting only).

Build phase: a doAll-style KVMSR job inserts every data record into an
SHT (one insert + ack per task).  Match phase: a second job probes the SHT
for every query key; hits emit ``<0, 1>`` and the reduce counts them, so
the hit total arrives through the flush value channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.datastruct.sht import ScalableHashTable
from repro.kvmsr import (
    ArrayInput,
    KVMSRJob,
    MapTask,
    ReduceTask,
    job_of,
)
from repro.machine.stats import SimStats
from repro.udweave import UpDownRuntime, event


class BuildTask(MapTask):
    def kv_map(self, ctx, key, record_key, record_value):
        app = self.job(ctx).payload
        app.table.insert_from(
            ctx, record_key, (record_value,), cont=ctx.self_evw("ack")
        )
        ctx.yield_()

    @event
    def ack(self, ctx, ok):
        self.kv_map_return(ctx)


class ProbeTask(MapTask):
    def kv_map(self, ctx, key, probe_key):
        app = self.job(ctx).payload
        app.table.lookup_from(ctx, probe_key, ctx.self_evw("reply"))
        ctx.yield_()

    @event
    def reply(self, ctx, found, *values):
        if found:
            self.kv_emit(ctx, 0, 1)
        self.kv_map_return(ctx)


class CountReduce(ReduceTask):
    def kv_reduce(self, ctx, key, one):
        k = ("em_hits", self._job_id)
        ctx.sp_write(k, ctx.sp_read(k, 0) + one)
        self.kv_reduce_return(ctx)

    def kv_flush(self, ctx):
        k = ("em_hits", self._job_id)
        hits = ctx.sp_read(k, 0)
        ctx.sp_write(k, 0)
        self.kv_flush_return(ctx, hits)


@dataclass
class ExactMatchResult:
    hits: int
    elapsed_seconds: float
    stats: SimStats


class ExactMatchApp:
    """Count how many probe keys exist among the data records."""

    def __init__(
        self,
        runtime: UpDownRuntime,
        data: Sequence[tuple],
        probes: Sequence[int],
        name: str = "em",
    ) -> None:
        data = list(data)
        probes = list(probes)
        if not data or not probes:
            raise ValueError("need data records and probe keys")
        self.runtime = runtime
        self.table = ScalableHashTable(runtime, f"{name}_sht", value_words=1)
        gm = runtime.gmem
        self.data_region = gm.dram_malloc(
            len(data) * 2 * 8, name=f"{name}_data"
        )
        self.data_region[:] = np.asarray(data, dtype=np.int64).ravel()
        self.probe_region = gm.dram_malloc(
            len(probes) * 8, name=f"{name}_probes"
        )
        self.probe_region[:] = np.asarray(probes, dtype=np.int64)
        self.build_job = KVMSRJob(
            runtime,
            BuildTask,
            ArrayInput(self.data_region, 2, len(data)),
            payload=self,
            name=f"{name}_build",
        )
        self.probe_job = KVMSRJob(
            runtime,
            ProbeTask,
            ArrayInput(self.probe_region, 1, len(probes)),
            reduce_cls=CountReduce,
            payload=self,
            name=f"{name}_probe",
        )

    def run(self, max_events: Optional[int] = None) -> ExactMatchResult:
        rt = self.runtime
        self.build_job.launch(cont_tag="em_build_done")
        rt.run(max_events=max_events)
        if not rt.host_messages("em_build_done"):
            raise rt.sim.incomplete("exact-match build did not complete")
        self.probe_job.launch(cont_tag="em_probe_done")
        stats = rt.run(max_events=max_events)
        done = rt.host_messages("em_probe_done")
        if not done:
            raise rt.sim.incomplete("exact-match probe did not complete")
        _t, _e, _p, hits = done[-1].operands
        return ExactMatchResult(
            hits=int(hits), elapsed_seconds=rt.elapsed_seconds, stats=stats
        )
