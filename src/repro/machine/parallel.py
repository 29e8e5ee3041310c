"""Conservative epoch-windowed sharded execution of the DES.

The authors' Fastsim is a parallel C++/OpenMP simulator; this module is
the sharding discipline such an engine rests on, for the Python DES.  The
machine's nodes are partitioned into contiguous shards, each owning a
per-shard event heap plus the lanes, DRAM channel, and injection/reply
channels of its nodes.  An epoch driver repeatedly:

1. finds the global next-event time ``T`` (the min over shard heaps and
   the records parked on each shard's lanes);
2. advances every shard independently through the window
   ``[T, T + lookahead)``;
3. repeats — cross-shard pushes went straight into the target shard's
   heap during the window.

``lookahead`` is :attr:`MachineConfig.conservative_lookahead_cycles` —
the minimum number of cycles any cross-node interaction needs to take
effect (cross-node message base latency, or one remote-DRAM fabric
transit).  Because every event a shard executes inside the window can
only schedule work on *other* shards at ``>= T + lookahead``, no shard
can miss an inbound event by running ahead within the window: the
classic conservative (lookahead-based) synchronization argument, the
same barrier-synchronized discipline GraphLab's engines use.

Determinism — the hard requirement — comes from the heap key: every
scheduled event carries ``(time, dest, seq)`` where ``seq`` is assigned
by the *issuing* actor from its private counter (see
``repro.machine.events``).  Each actor (host, lane, or node) executes on
exactly one shard, so the keys a sharded run assigns are byte-for-byte
the keys the sequential run assigns, and each shard pops exactly the
sequential event sequence restricted to its nodes.  Combined with strict
node-ownership of all cost-model state (channels, memory, lanes), every
counter, timestamp, and mailbox entry is bit-identical to the sequential
drain.

There is one runner, :class:`ShardScheduler`: every shard lives in this
process and each window runs shard after shard.  Shards share the host
heap, so host writes to regions or scratchpads and registrations made
between ``run()`` calls are simply visible — nothing is replicated.
There is no process-per-shard mode: measured on 2 shards it cost more
CPU than in-process shards and was no faster than the sequential drain
(DESIGN.md, "Conservative parallel execution").

Batched dispatch runs inside windows: a shard parks batch-safe reduce
records on their destination lanes exactly as the sequential drain does
(``Simulator.issue``, the one message-issue site).  Three rules keep
that bit-exact:

1. *``T`` sees parked records.*  A shard's head is the earlier of its
   heap head and the first parked key on its lanes, and a shard runs in
   a window if that head is before the window end.
2. *The exit flush stays on the running shard's lanes.*  A window's
   ``_drain`` flushes only its own shard's lanes up to the window end;
   flushing another shard's lanes would run its records before that
   shard's own earlier heap events of the same window.
3. *Quiescence counts parked records* (:meth:`ShardScheduler._settle`).

A record parked across shards is as safe as a heap push: its delivery
is at least one lookahead after issue, so at or after the window end.
BFS's once-guard reads the destination lane's scratchpad at emit, and
that lane may belong to a shard that ran ahead or behind in simulated
time.  The flag is monotone, so a set flag is still set at delivery and
the parked visited arm is what the interpreter would run; an unset one
just sends through the heap.  Only the host-split counters
(``records_batched`` and friends) may differ from the sequential run.

The watchdog verdict is :meth:`Simulator._drain`'s, as sequentially.
Shards of one window share ``sim._wd_last_progress``, so under sharding
the verdict is exact only to within one lookahead.
"""

from __future__ import annotations

import heapq
import math
from typing import List, Optional

from .simulator import SimulationError


class ShardScheduler:
    """The in-process shard runner (``shards=N``) and its window loop.

    Hooks ``Simulator._route`` so every push lands in the owning shard's
    heap (host-bound entries are buffered — the host is outside the
    machine), then runs a window by swapping each shard's heap into
    ``sim._heap`` in turn.  Cross-shard pushes go straight into the
    target heap: conservative lookahead guarantees they land at or
    beyond the window end, so the target shard — whether it ran already
    this window or not — cannot see them early.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        cfg = sim.config
        self.lookahead: float = cfg.conservative_lookahead_cycles
        self.total_lanes: int = cfg.total_lanes
        self.lanes_per_node: int = cfg.lanes_per_node
        self.shard_of_node: List[int] = sim._shard_of_node
        self.heaps: List[list] = [[] for _ in range(sim.shards)]
        #: host-bound entries collected during windows (see
        #: :meth:`_settle`).
        self._host_entries: List[tuple] = []
        #: epoch windows coordinated so far, over all drains.
        self.windows = 0
        sim._shard_heaps = self.heaps
        sim._route = self._route
        # adopt anything injected before the first drain
        for entry in sim._take_queued():
            self._route(entry)

    def _route(self, entry) -> None:
        dest = entry[1]
        if dest < 0:
            self._host_entries.append(entry)
            return
        if dest >= self.total_lanes:
            node = dest - self.total_lanes  # DRAM arrival at its node
        else:
            node = dest // self.lanes_per_node
        heapq.heappush(self.heaps[self.shard_of_node[node]], entry)

    def drain(self, max_events: Optional[int], until: Optional[float] = None):
        """Run windows until nothing is queued before ``until`` (the
        :meth:`Simulator.run` bound; later entries stay queued in the
        shard heaps).  Clamping a window to the bound is always safe:
        any window that ends no later than one lookahead past the next
        event preserves the conservative argument.

        Each shard's ``_drain`` may spend the whole remaining budget; the
        window's total is charged against it afterwards.  A shard's head
        and its exit flush cover only its own lanes (rules 1 and 2 in the
        module docstring).
        """
        sim = self.sim
        stats = sim.stats
        shards = list(zip(self.heaps, sim._shard_lanes))
        budget = max_events
        bound = math.inf if until is None else until
        while True:
            heads = [self._head(heap, lanes) for heap, lanes in shards]
            t_next = min(heads)
            if t_next >= bound:
                break
            window_end = min(t_next + self.lookahead, bound)
            before = stats.events_executed
            for (heap, lanes), head in zip(shards, heads):
                if head < window_end:
                    sim._heap = heap
                    try:
                        sim._drain(budget, window_end, lanes)
                    finally:
                        sim._heap = []
            self.windows += 1
            if budget is not None:
                budget -= stats.events_executed - before
                if budget <= 0:
                    raise SimulationError(
                        f"simulation exceeded max_events={max_events}"
                    )
        self._settle(bound)
        return stats

    def _head(self, heap: list, lanes: list) -> float:
        """A shard's next-event time: its heap head or the earliest
        record parked on one of its lanes, whichever is first."""
        t = heap[0][0] if heap else math.inf
        if self.sim._parked_total:
            for ln in lanes:
                parked = ln.parked
                if parked and parked[0][0] < t:
                    t = parked[0][0]
        return t

    def _settle(self, bound: float) -> None:
        """Deliver the host mail due before ``bound`` in sequential order,
        then file the quiescence verdict (see
        :meth:`Simulator._note_quiescence`).

        The host mailbox has no feedback into the simulation, so host
        deliveries are buffered during windows and appended at drain end,
        sorted by the same ``(time, seq)`` key the sequential pop loop
        orders them by — the resulting inbox is bit-identical.  Entries
        at or after the bound stay buffered, as they would stay heaped
        sequentially, and count as queued work.
        """
        sim = self.sim
        stats = sim.stats
        entries = self._host_entries
        if entries:
            entries.sort(key=lambda e: (e[0], e[2]))
            inbox = sim.host_inbox
            final_tick = stats.final_tick
            due = 0
            for entry in entries:
                t = entry[0]
                if t >= bound:
                    break
                inbox.append((t, entry[3]))
                if t > final_tick:
                    final_tick = t
                due += 1
            stats.final_tick = final_tick
            del entries[:due]
        pending = sim._live_threads()
        stats.pending_threads = pending
        stats.quiesced = (
            pending == 0
            and not any(self.heaps)
            and not entries
            and sim._parked_total == 0
        )
