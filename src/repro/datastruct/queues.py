"""Multi-producer / multi-consumer queue — a §2.2 shared data abstraction.

A distributed queue of ``n_segments`` lane-local segments.  Producers
enqueue to a segment chosen by a round-robin ticket (spread for balance);
consumers dequeue by asking a segment's owner lane, which replies with an
item or "empty".  Owner-lane event serialization makes each segment a
race-free deque with no locks, the same discipline as the SHT.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.kvmsr.binding import splitmix64
from repro.udweave import UDThread, UpDownRuntime, event
from repro.udweave.context import LaneContext


class QueueOp(UDThread):
    """One queue operation on a segment's owner lane."""

    @event
    def enqueue(self, ctx, qname, item):
        q = MPMCQueue.named(ctx.runtime, qname)
        seg = q._segment(ctx)
        seg.append(item)
        ctx.work(2)
        ctx.send_reply(1)
        ctx.yield_terminate()

    @event
    def dequeue(self, ctx, qname):
        q = MPMCQueue.named(ctx.runtime, qname)
        seg = q._segment(ctx)
        ctx.work(2)
        if seg:
            ctx.send_reply(1, seg.popleft())
        else:
            ctx.send_reply(0)
        ctx.yield_terminate()


class MPMCQueue:
    """Host-side descriptor for one distributed queue."""

    def __init__(
        self,
        runtime: UpDownRuntime,
        name: str,
        first_lane: int = 0,
        n_segments: Optional[int] = None,
    ) -> None:
        self.runtime = runtime
        self.name = name
        self.first_lane = first_lane
        self.n_segments = n_segments or runtime.config.total_lanes
        if first_lane + self.n_segments > runtime.config.total_lanes:
            raise ValueError(
                f"queue segments [{first_lane}, "
                f"{first_lane + self.n_segments}) exceed the machine's "
                f"{runtime.config.total_lanes} lanes"
            )
        runtime.register(QueueOp)
        queues = runtime.registry("mpmc_queues")
        if name in queues:
            raise ValueError(f"queue name {name!r} already in use")
        queues[name] = self

    @staticmethod
    def named(runtime: UpDownRuntime, name: str) -> "MPMCQueue":
        return runtime.registry("mpmc_queues")[name]

    def _lane_for_ticket(self, ticket: int) -> int:
        return self.first_lane + splitmix64(ticket) % self.n_segments

    def _segment(self, ctx: LaneContext) -> deque:
        key = ("mpmc", self.name)
        seg = ctx.sp_read(key)
        if seg is None:
            seg = deque()
            ctx.sp_write(key, seg)
        return seg

    # -- device-side API ----------------------------------------------------

    def enqueue_from(self, ctx: LaneContext, item, ticket: int, cont=None) -> None:
        """Enqueue ``item``; ``ticket`` spreads producers across segments
        (any counter works — monotone per producer is typical)."""
        ctx.spawn(
            self._lane_for_ticket(ticket), "QueueOp::enqueue", self.name,
            item, cont=cont,
        )

    def dequeue_from(self, ctx: LaneContext, ticket: int, cont) -> None:
        """Ask a segment for an item; reply ``(1, item)`` or ``(0,)``."""
        ctx.spawn(
            self._lane_for_ticket(ticket), "QueueOp::dequeue", self.name,
            cont=cont,
        )

    # -- host-side verification ---------------------------------------------

    def snapshot(self) -> list:
        items = []
        for lane in range(self.first_lane, self.first_lane + self.n_segments):
            ln = self.runtime.sim._lanes.get(lane)
            if ln is None:
                continue
            seg = ln.scratchpad.get(("mpmc", self.name))
            if seg:
                items.extend(seg)
        return items

    def __len__(self) -> int:
        return len(self.snapshot())
