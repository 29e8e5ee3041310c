"""Construct Sequences — Table 3 ("doAll, kvmap").

Groups a stream of timestamped events by entity and orders each entity's
events by time (the AGILE multihop workflows build per-account activity
sequences this way).  Same two-phase shape as the global sort:

1. **Count**: map over the event array, emit ``<entity, 1>``; the reduce
   counts events per entity and flushes counts to a region.
2. Host prefix sum assigns each entity its output slice.
3. **Place**: map emits ``<entity, (ts, value)>``; each entity's owner lane
   buffers, sorts by timestamp at flush, and writes the sequence into the
   entity's slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2
from typing import Dict, Optional

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

#: event record: (entity, timestamp, value)
EVENT_WORDS = 3


class SeqCountTask(MapTask):
    def kv_map(self, ctx, key, entity, ts, value):
        ctx.work(2)
        self.kv_emit(ctx, entity, 1)
        self.kv_map_return(ctx)


class SeqCountReduce(ReduceTask):
    intrinsic_only = True

    def kv_reduce(self, ctx, entity, one):
        app = self.job(ctx).payload
        app.cache.add(ctx, entity, one)
        self.kv_reduce_return(ctx)

    def kv_flush(self, ctx):
        app = self.job(ctx).payload
        drained = app.cache.flush_to_region(ctx, app.counts_region)
        self.kv_flush_return(ctx, drained)


class SeqPlaceTask(MapTask):
    def kv_map(self, ctx, key, entity, ts, value):
        ctx.work(2)
        self.kv_emit(ctx, entity, ts, value)
        self.kv_map_return(ctx)


class SeqPlaceReduce(ReduceTask):
    def kv_reduce(self, ctx, entity, ts, value):
        app = self.job(ctx).payload
        key = ("seqb", app.uid, entity)
        items = ctx.sp_read(key)
        if items is None:
            items = []
            owned = ctx.sp_read(("seqk", app.uid), None)
            if owned is None:
                owned = []
            owned.append(entity)
            ctx.sp_write(("seqk", app.uid), owned)
        items.append((ts, value))
        ctx.sp_write(key, items)
        ctx.work(2)
        self.kv_reduce_return(ctx)

    def kv_flush(self, ctx):
        app = self.job(ctx).payload
        owned = ctx.sp_read(("seqk", app.uid), None) or []
        written = 0
        for entity in owned:
            items = ctx.sp_read(("seqb", app.uid, entity)) or []
            items.sort()  # by (ts, value)
            k = len(items)
            ctx.work(int(k * max(1.0, log2(max(k, 2)))))
            base = int(app.offsets[entity])
            values = [v for _ts, v in items]
            for i in range(0, k, 8):
                ctx.send_dram_write(
                    app.out_region.addr(base + i), values[i : i + 8]
                )
            written += k
            ctx.sp_write(("seqb", app.uid, entity), None)
        ctx.sp_write(("seqk", app.uid), [])
        self.kv_flush_return(ctx, written)


@dataclass
class SequencesResult:
    sequences: Dict[int, list]
    elapsed_seconds: float
    stats: SimStats


class ConstructSequencesApp:
    """Build per-entity, time-ordered event sequences."""

    def __init__(
        self,
        runtime: UpDownRuntime,
        events: np.ndarray,
        n_entities: int,
        name: str = "seq",
    ) -> None:
        events = np.asarray(events, dtype=np.int64)
        if events.ndim != 2 or events.shape[1] != EVENT_WORDS:
            raise ValueError("events must be (n, 3): entity, ts, value")
        if len(events) == 0:
            raise ValueError("need at least one event")
        self.runtime = runtime
        self.n_entities = n_entities
        self.n_events = len(events)
        gm = runtime.gmem
        self.events_region = gm.dram_malloc(
            events.size * 8, name=f"{name}_events"
        )
        self.events_region[:] = events.ravel()
        self.counts_region = gm.dram_malloc(
            n_entities * 8, name=f"{name}_counts"
        )
        self.out_region = gm.dram_malloc(
            self.n_events * 8, name=f"{name}_out"
        )
        ein = ArrayInput(self.events_region, EVENT_WORDS, self.n_events)
        self.count_job = KVMSRJob(
            runtime, SeqCountTask, ein, reduce_cls=SeqCountReduce,
            payload=self, name=f"{name}_count",
        )
        self.place_job = KVMSRJob(
            runtime, SeqPlaceTask, ein, reduce_cls=SeqPlaceReduce,
            payload=self, name=f"{name}_place",
        )
        self.cache = CombiningCache(f"seq{self.count_job.job_id}")
        self.uid = self.count_job.job_id
        self.offsets: Optional[np.ndarray] = None

    def run(self, max_events: Optional[int] = None) -> SequencesResult:
        rt = self.runtime
        self.count_job.launch(cont_tag="seq_count_done")
        rt.run(max_events=max_events)
        if not rt.host_messages("seq_count_done"):
            raise rt.sim.incomplete("sequence count did not complete")
        counts = self.counts_region.data
        self.offsets = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(
            np.int64
        )
        self.place_job.launch(cont_tag="seq_place_done")
        stats = rt.run(max_events=max_events)
        if not rt.host_messages("seq_place_done"):
            raise rt.sim.incomplete("sequence place did not complete")
        sequences: Dict[int, list] = {}
        for e in range(self.n_entities):
            c = int(counts[e])
            if c:
                base = int(self.offsets[e])
                sequences[e] = self.out_region.data[base : base + c].tolist()
        return SequencesResult(
            sequences=sequences,
            elapsed_seconds=rt.elapsed_seconds,
            stats=stats,
        )


def reference_sequences(events: np.ndarray) -> Dict[int, list]:
    """Host oracle: stable (ts, value)-ordered values per entity."""
    out: Dict[int, list] = {}
    for entity, ts, value in sorted(
        map(tuple, np.asarray(events, dtype=np.int64))
    ):
        out.setdefault(int(entity), []).append(int(value))
    return out
