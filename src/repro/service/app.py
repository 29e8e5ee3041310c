"""Device-side service program: a live mutating graph plus query tasks.

One :class:`ServiceApp` owns the state every request class touches:

* a :class:`~repro.datastruct.pgraph.ParallelGraph` with the adjacency
  index enabled (updates mutate it, multihop queries traverse it);
* the partial-match state table (a scalable hash table keyed by
  ``(pattern, stage, frontier vertex)``);
* the registered pattern set.

Updates reuse :class:`~repro.apps.partial_match.PMRecordTask` verbatim —
the §5.2.4 ingest-and-incrementally-evaluate pipeline *is* the service's
write path — by registering this app in the same named-app registry the
task resolves against (duck-typed: it only reads ``pga`` / ``patterns``
/ ``pattern_by_id`` / ``state``).  Queries are lightweight per-request
threads: one lookup, one state probe, or a thread-local frontier walk —
not a KVMSR job per request, which would be three phase barriers for a
three-operand answer.

Every task completes by sending the host its request id, so the harness
can close the latency measurement the arrival tick opened.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.apps.partial_match import PMRecordTask, Pattern
from repro.datastruct.pgraph import ParallelGraph
from repro.datastruct.sht import ScalableHashTable
from repro.udweave import UDThread, UpDownRuntime, event

from .workload import DEFAULT_PATTERNS

#: host-mailbox label query tasks complete under (updates complete under
#: PMRecordTask's ``pm_rec_done``; the harness listens for both).
DONE_LABEL = "svc_done"


class SvcExactTask(UDThread):
    """Exact-match query: one edge point lookup, answered to the host."""

    def __init__(self) -> None:
        self.req_id = -1

    @event
    def start(self, ctx, app_name, req_id, src, dst):
        app = ServiceApp.named(ctx.runtime, app_name)
        self.req_id = req_id
        ctx.work(1)
        app.pga.lookup_edge_from(ctx, src, dst, ctx.self_evw("reply"))
        ctx.yield_()

    @event
    def reply(self, ctx, found, *values):
        ctx.send_event(
            ctx.runtime.host_evw(DONE_LABEL), self.req_id, found
        )
        ctx.yield_terminate()


class SvcPartialTask(UDThread):
    """Partial-match probe: is ``(pattern, stage, vertex)`` state open?"""

    def __init__(self) -> None:
        self.req_id = -1

    @event
    def start(self, ctx, app_name, req_id, pattern_id, stage, vid):
        app = ServiceApp.named(ctx.runtime, app_name)
        self.req_id = req_id
        ctx.work(1)
        app.state.lookup_from(
            ctx, (pattern_id, stage, vid), ctx.self_evw("reply")
        )
        ctx.yield_()

    @event
    def reply(self, ctx, found, *values):
        ctx.send_event(
            ctx.runtime.host_evw(DONE_LABEL), self.req_id, found
        )
        ctx.yield_terminate()


class SvcMultihopTask(UDThread):
    """Bounded k-hop reachability over the live adjacency index.

    The frontier lives in thread state; each hop fans one
    ``neighbors_from`` query out per frontier vertex and waits for all
    replies before advancing — a per-request micro-BFS, deliberately
    *not* a KVMSR job per hop (a three-phase barrier per hop would put
    the whole machine in one request's critical path).
    """

    def __init__(self) -> None:
        self.req_id = -1
        self.app_name = ""
        self.hops_left = 0
        self.seen: set = set()
        self.frontier: list = []
        self.pending = 0

    @event
    def start(self, ctx, app_name, req_id, vid, hops):
        self.app_name, self.req_id = app_name, req_id
        self.hops_left = hops
        self.seen = {vid}
        self.frontier = [vid]
        self._advance(ctx)

    def _advance(self, ctx) -> None:
        """Issue the next hop's queries, or answer the host when done."""
        if self.hops_left > 0 and self.frontier:
            self.hops_left -= 1
            app = ServiceApp.named(ctx.runtime, self.app_name)
            frontier, self.frontier = self.frontier, []
            adj_evw = ctx.self_evw("adj")
            for vid in frontier:
                ctx.work(1)
                app.pga.neighbors_from(ctx, vid, adj_evw)
                self.pending += 1
            ctx.yield_()
            return
        ctx.send_event(
            ctx.runtime.host_evw(DONE_LABEL), self.req_id, len(self.seen)
        )
        ctx.yield_terminate()

    @event
    def adj(self, ctx, *neighbors):
        seen = self.seen
        frontier = self.frontier
        ctx.work(1 + len(neighbors))
        for v in neighbors:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
        self.pending -= 1
        if self.pending == 0:
            self._advance(ctx)
        else:
            ctx.yield_()


class ServiceApp:
    """Host-side setup for the always-on service (state + task classes)."""

    def __init__(
        self,
        runtime: UpDownRuntime,
        patterns: Sequence[Pattern] = DEFAULT_PATTERNS,
        name: str = "svc",
        ingest_lanes: Optional[int] = None,
    ) -> None:
        self.runtime = runtime
        self.name = name
        self.patterns = list(patterns)
        self.pattern_by_id = {p.pattern_id: p for p in self.patterns}
        if len(self.pattern_by_id) != len(self.patterns):
            raise ValueError("pattern ids must be unique")
        self.pga = ParallelGraph(
            runtime, name=f"{name}_pga", adjacency=True
        )
        self.state = ScalableHashTable(
            runtime, f"{name}_state", value_words=2
        )
        self.ingest_lanes = ingest_lanes or runtime.config.total_lanes
        runtime.register(PMRecordTask)
        runtime.register(SvcExactTask)
        runtime.register(SvcPartialTask)
        runtime.register(SvcMultihopTask)
        # the shared named-app registry PMRecordTask resolves through
        runtime.registry("pm_apps")[name] = self

    @staticmethod
    def named(runtime: UpDownRuntime, name: str) -> "ServiceApp":
        """Resolve a registered service app by name (device-side)."""
        return runtime.registry("pm_apps")[name]

    def start_label(self, cls: str) -> str:
        """The thread-start label serving one request class."""
        return {
            "update": "PMRecordTask::start",
            "exact": "SvcExactTask::start",
            "multihop": "SvcMultihopTask::start",
            "partial": "SvcPartialTask::start",
        }[cls]
