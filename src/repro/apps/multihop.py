"""Multihop reasoning over an ingested graph (Table 3: "Multihop
Ingestion" + "Multihop Reasoning", both "doAll, kvmap").

The AGILE workflow ingests a record stream into the Parallel Graph
Abstraction, then answers k-hop reachability queries over the live
structure.  Each hop is one KVMSR invocation mapping over the current
frontier: every map task queries its vertex's adjacency (resident on the
vertex's owner lane), emits the neighbors, and reduces dedup against an
owner-lane "seen" set — the same ownership discipline as BFS, but over
the *streamed* graph rather than a preprocessed CSR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from repro.kvmsr import KVMSRJob, ListInput, MapTask, ReduceTask, job_of
from repro.machine.stats import SimStats
from repro.udweave import UpDownRuntime, event

from .ingestion import IngestionApp
from .tform import REC_EDGE, Record


class HopMapTask(MapTask):
    """Fetch one frontier vertex's neighbors; emit each."""

    def kv_map(self, ctx, vid):
        app = self.job(ctx).payload
        app.pga.neighbors_from(ctx, vid, ctx.self_evw("got_adj"))
        ctx.yield_()

    @event
    def got_adj(self, ctx, *neighbors):
        for u in neighbors:
            self.kv_emit(ctx, u)
            ctx.work(1)
        self.kv_map_return(ctx)


class HopReduceTask(ReduceTask):
    """Owner-lane dedup; newly reached vertices join the next frontier."""

    def kv_reduce(self, ctx, u):
        app = self.job(ctx).payload
        seen_key = ("mh_seen", app.uid, u)
        ctx.work(2)
        if ctx.sp_read(seen_key) is None:
            ctx.sp_write(seen_key, True)
            new_key = ("mh_new", app.uid)
            new: List[int] = ctx.sp_read(new_key, None) or []
            new.append(u)
            ctx.sp_write(new_key, new)
        self.kv_reduce_return(ctx)

    def kv_flush(self, ctx):
        app = self.job(ctx).payload
        new_key = ("mh_new", app.uid)
        new = ctx.sp_read(new_key, None) or []
        app.next_frontier.extend(new)
        ctx.sp_write(new_key, [])
        self.kv_flush_return(ctx, len(new))


@dataclass
class MultihopResult:
    reached: Dict[int, int]  # vertex -> hop distance
    hops: int
    elapsed_seconds: float
    stats: SimStats


class MultihopApp:
    """Ingest a record stream, then answer k-hop reachability queries."""

    def __init__(
        self,
        runtime: UpDownRuntime,
        records: Sequence[Record],
        name: str = "multihop",
        block_words: int = 32,
    ) -> None:
        self.runtime = runtime
        self.name = name
        self.ingest = IngestionApp(
            runtime,
            records,
            block_words=block_words,
            name=f"{name}_ing",
            adjacency=True,
        )
        self.pga = self.ingest.pga
        self.next_frontier: List[int] = []
        self.uid = -1
        self._ingested = False

    def run_ingest(self, max_events: Optional[int] = None) -> None:
        """Phase 1: stream the records into the graph."""
        self.ingest.run(max_events=max_events)
        self._ingested = True

    def query(
        self,
        seeds: Sequence[int],
        hops: int,
        max_events: Optional[int] = None,
    ) -> MultihopResult:
        """Phase 2: all vertices within ``hops`` edges of ``seeds``."""
        if not self._ingested:
            raise RuntimeError("call run_ingest() before querying")
        if hops < 0:
            raise ValueError("hop count cannot be negative")
        rt = self.runtime
        reached: Dict[int, int] = {int(s): 0 for s in seeds}
        frontier = sorted(reached)
        # seed the owner-lane seen sets host-side (query setup)
        stats = rt.sim.stats
        for hop in range(1, hops + 1):
            if not frontier:
                break
            self.next_frontier = []
            job = KVMSRJob(
                rt,
                HopMapTask,
                ListInput([(v, ()) for v in frontier]),
                reduce_cls=HopReduceTask,
                payload=self,
                name=f"{self.name}_hop{self.uid + 1}",
            )
            self.uid = job.job_id
            # mark already-reached vertices as seen on their owner lanes
            # (host-side query state priming, like BFS's root seeding)
            for v in reached:
                owner = job.reduce_binding.lane_for(v, job.reduce_lanes)
                rt.sim.lane(owner).scratchpad[("mh_seen", job.job_id, v)] = True
            _, stats = job.run(
                "multihop_hop_done", "multihop hop", max_events=max_events
            )
            for v in self.next_frontier:
                reached[int(v)] = hop
            frontier = sorted(set(int(v) for v in self.next_frontier))
        return MultihopResult(
            reached=reached,
            hops=hops,
            elapsed_seconds=rt.elapsed_seconds,
            stats=stats,
        )


def reference_multihop(
    records: Sequence[Record], seeds: Sequence[int], hops: int
) -> Dict[int, int]:
    """Oracle: BFS over the edge records, truncated at ``hops``."""
    adj: Dict[int, Set[int]] = {}
    for r in records:
        if r.kind == REC_EDGE:
            src, dst = r.fields[0], r.fields[1]
            adj.setdefault(src, set()).add(dst)
    dist = {int(s): 0 for s in seeds}
    frontier = list(dist)
    for hop in range(1, hops + 1):
        nxt = []
        for v in frontier:
            for u in adj.get(v, ()):
                if u not in dist:
                    dist[u] = hop
                    nxt.append(u)
        frontier = nxt
    return dist
