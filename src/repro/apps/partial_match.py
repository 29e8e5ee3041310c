"""Partial Match: streaming pattern queries over ingested updates (§5.2.4).

"Records are received from the network and inserted into the graph.  They
are processed against a set of registered patterns.  The objective is to
incrementally evaluate the patterns and identify matches as rapidly as
possible!  Latency is the metric." (Figure 11.)

A pattern here is a typed path: ``types = (t0, t1, ..., tk)`` matches when
edges with those types arrive forming a path ``v0 -t0-> v1 -t1-> ...``
*in arrival order* (each edge may extend any prefix completed before it).
Partial-match state lives in a scalable hash table keyed by
``(pattern, stage, frontier vertex)`` — the paper's "based on scalable
hash tables (SHT)" — so state for a vertex serializes on its owner lane.

Per edge record the pipeline: insert the edge into the Parallel Graph,
open stage-0 state when the edge's type starts a pattern, and probe/extend
every stage the type could continue; a completed last stage raises an
alert to the host.  The host computes per-record latency from injection
time to the record's completion message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.datastruct.pgraph import ParallelGraph
from repro.datastruct.sht import ScalableHashTable
from repro.machine.stats import SimStats
from repro.udweave import UDThread, UpDownRuntime, event

from .tform import REC_EDGE, Record


@dataclass(frozen=True)
class Pattern:
    """A typed-path query: ``types[i]`` is stage ``i``'s edge type."""

    pattern_id: int
    types: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.types) < 1:
            raise ValueError("a pattern needs at least one stage")


class PMRecordTask(UDThread):
    """Process one streamed edge record end to end.

    Two phases per record, mirroring the incremental semantics: first
    every probe resolves against the state *prior* records left behind,
    then this record's own state updates (stage-0 opens and extensions)
    are applied.  Without the barrier, a record whose edge both opens and
    extends the same state key (e.g. a self-loop under pattern (t, t))
    could observe its own stage-0 insert.
    """

    def __init__(self) -> None:
        self.rec_id = -1
        self.probes_pending = 0
        self.acks_pending = 0
        self.updates_applied = False
        self.app_name = ""
        self.dst = -1
        self.ts = 0
        self.planned_updates: list = []

    @event
    def start(self, ctx, app_name, rec_id, src, dst, etype, ts):
        app = PartialMatchApp.named(ctx.runtime, app_name)
        self.app_name, self.rec_id = app_name, rec_id
        self.dst, self.ts = dst, ts
        self.planned_updates = []
        # ingest the edge into the running graph (independent of matching)
        app.pga.insert_edge_from(
            ctx, src, dst, (etype, ts), cont=ctx.self_evw("ack")
        )
        self.acks_pending = 1
        # phase A: plan stage-0 opens, issue probes for extendable stages
        for p in app.patterns:
            ctx.work(2)
            if p.types[0] == etype:
                self.planned_updates.append((p.pattern_id, 0, dst))
            for stage in range(1, len(p.types)):
                if p.types[stage] == etype:
                    app.state.lookup_from(
                        ctx,
                        (p.pattern_id, stage - 1, src),
                        ctx.self_evw("probe_reply"),
                        tag=(p.pattern_id, stage),
                    )
                    self.probes_pending += 1
        if self.probes_pending == 0:
            self._apply_updates(ctx)
        ctx.yield_()

    @event
    def probe_reply(self, ctx, tag, found, *values):
        app = PartialMatchApp.named(ctx.runtime, self.app_name)
        pattern_id, stage = tag
        if found:
            pattern = app.pattern_by_id[pattern_id]
            if stage == len(pattern.types) - 1:
                ctx.send_event(
                    ctx.runtime.host_evw("pm_alert"),
                    self.rec_id,
                    pattern_id,
                    self.dst,
                )
            else:
                self.planned_updates.append((pattern_id, stage, self.dst))
        self.probes_pending -= 1
        if self.probes_pending == 0:
            self._apply_updates(ctx)
            self._maybe_finish(ctx)
        else:
            ctx.yield_()

    def _apply_updates(self, ctx) -> None:
        """Phase B: write this record's state transitions."""
        app = PartialMatchApp.named(ctx.runtime, self.app_name)
        ack = ctx.self_evw("ack")
        for key in self.planned_updates:
            app.state.update_from(ctx, key, (self.ts,), cont=ack)
            self.acks_pending += 1
        self.planned_updates = []
        self.updates_applied = True

    @event
    def ack(self, ctx, ok):
        self.acks_pending -= 1
        self._maybe_finish(ctx)

    def _maybe_finish(self, ctx) -> None:
        if (
            self.updates_applied
            and self.acks_pending == 0
            and self.probes_pending == 0
        ):
            ctx.send_event(ctx.runtime.host_evw("pm_rec_done"), self.rec_id)
            ctx.yield_terminate()
        else:
            ctx.yield_()


@dataclass
class PartialMatchResult:
    latencies_seconds: np.ndarray
    alerts: List[Tuple[int, int, int]]  # (rec_id, pattern_id, vertex)
    elapsed_seconds: float
    stats: SimStats

    @property
    def mean_latency_seconds(self) -> float:
        return float(self.latencies_seconds.mean()) if len(
            self.latencies_seconds
        ) else 0.0


class PartialMatchApp:
    """Host-side setup + streaming driver for partial match."""

    def __init__(
        self,
        runtime: UpDownRuntime,
        patterns: Sequence[Pattern],
        name: str = "pm",
        ingest_lanes: Optional[int] = None,
    ) -> None:
        self.runtime = runtime
        self.name = name
        self.patterns = list(patterns)
        self.pattern_by_id = {p.pattern_id: p for p in self.patterns}
        if len(self.pattern_by_id) != len(self.patterns):
            raise ValueError("pattern ids must be unique")
        self.pga = ParallelGraph(runtime, name=f"{name}_pga")
        self.state = ScalableHashTable(runtime, f"{name}_state", value_words=2)
        self.ingest_lanes = ingest_lanes or runtime.config.total_lanes
        runtime.register(PMRecordTask)
        runtime.registry("pm_apps")[name] = self

    @staticmethod
    def named(runtime: UpDownRuntime, name: str) -> "PartialMatchApp":
        return runtime.registry("pm_apps")[name]

    def run_stream(
        self,
        records: Sequence[Record],
        gap_cycles: float = 2000.0,
        max_events: Optional[int] = None,
    ) -> PartialMatchResult:
        """Stream edge records at one per ``gap_cycles`` and measure
        per-record completion latency."""
        rt = self.runtime
        inject_times: Dict[int, float] = {}
        rec_id = 0
        for rec in records:
            if rec.kind != REC_EDGE:
                continue
            src, dst, etype, ts = rec.fields
            t = rec_id * gap_cycles
            inject_times[rec_id] = t
            lane = rec_id % self.ingest_lanes
            rt.start(
                lane,
                "PMRecordTask::start",
                self.name,
                rec_id,
                src,
                dst,
                etype,
                ts,
                t=t,
            )
            rec_id += 1
        seen = len(rt.sim.host_inbox)
        stats = rt.run(max_events=max_events)
        mail = rt.sim.host_inbox[seen:]
        done_times: Dict[int, float] = {}
        for t, msg in mail:
            if msg.label == "pm_rec_done":
                done_times[msg.operands[0]] = t
        if set(done_times) != set(inject_times):
            missing = sorted(set(inject_times) - set(done_times))
            raise rt.sim.incomplete(
                f"records never completed: {missing[:5]}..."
            )
        lat = np.array(
            [
                rt.config.cycles_to_seconds(done_times[i] - inject_times[i])
                for i in sorted(inject_times)
            ]
        )
        alerts = [
            tuple(msg.operands)
            for _t, msg in mail
            if msg.label == "pm_alert"
        ]
        return PartialMatchResult(
            latencies_seconds=lat,
            alerts=alerts,
            elapsed_seconds=rt.elapsed_seconds,
            stats=stats,
        )


def reference_matches(
    records: Sequence[Record], patterns: Sequence[Pattern]
) -> List[Tuple[int, int, int]]:
    """Sequential oracle: the alerts a one-record-at-a-time evaluation
    produces.  Matches the simulated app when records are streamed with a
    gap large enough to avoid overlapping processing."""
    state = set()
    alerts: List[Tuple[int, int, int]] = []
    rec_id = 0
    for rec in records:
        if rec.kind != REC_EDGE:
            continue
        src, dst, etype, _ts = rec.fields
        new_state = []
        for p in patterns:
            for stage in range(1, len(p.types)):
                if p.types[stage] == etype and (p.pattern_id, stage - 1, src) in state:
                    if stage == len(p.types) - 1:
                        alerts.append((rec_id, p.pattern_id, dst))
                    else:
                        new_state.append((p.pattern_id, stage, dst))
            if p.types[0] == etype:
                new_state.append((p.pattern_id, 0, dst))
        state.update(new_state)
        rec_id += 1
    return alerts
