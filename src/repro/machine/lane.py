"""Lane model: one 2 GHz event-driven MIMD compute engine.

A lane owns a table of resident thread contexts (objects with state that
persists across events, paper §2.1.1), a scratchpad, and a busy-until
clock.  Events execute atomically: the simulator starts an event at
``max(arrival, busy_until)`` and advances ``busy_until`` by the event's
charged cycle count — hardware message queueing falls out of this
discipline without an explicit queue structure.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict


class Lane:
    """State of one lane, addressed by its flat networkID."""

    __slots__ = (
        "network_id",
        "node",
        "accel",
        "busy_until",
        "busy_cycles",
        "events_executed",
        "threads",
        "_next_tid",
        "_free_tids",
        "scratchpad",
        "ctx_cache",
        "parked",
        "streams",
    )

    def __init__(self, network_id: int, node: int, accel: int) -> None:
        self.network_id = network_id
        self.node = node
        self.accel = accel
        self.busy_until: float = 0.0
        self.busy_cycles: float = 0.0
        self.events_executed: int = 0
        #: thread context table: tid -> runtime thread object
        self.threads: Dict[int, Any] = {}
        #: thread-context ids are recycled (hardware contexts are finite
        #: and the event word's thread field is bounded), so an id is
        #: unique only among *live* threads.  The UDWeave dispatcher pops
        #: ``_free_tids`` (else mints ``_next_tid``) per spawn and pushes
        #: the id back on ``yield_terminate``; the ``ir`` batch fold keeps
        #: the same bookkeeping.
        self._next_tid: int = 0
        self._free_tids: list[int] = []
        #: lane-private scratchpad storage (word-addressed key/value store);
        #: capacity policing is done by spmalloc.
        self.scratchpad: Dict[int, Any] = {}
        #: opaque per-lane execution-context pool slot for the installed
        #: dispatcher (the UDWeave runtime parks one reusable LaneContext
        #: here instead of allocating a fresh one per event).
        self.ctx_cache: Any = None
        #: batch-dispatch staging area: ``(time, seq, plan, payload)``
        #: records parked at emit time, flushed in key order before the
        #: lane's state is next observed (``repro.udweave.ir``); the
        #: payload holds only the operand slots the plan's executor
        #: reads (``plan.reads``, often none: ``()``).  Each
        #: issuing actor's records form one key-sorted run in
        #: ``streams[actor]`` (a deque); ``parked`` is the heap of the
        #: non-empty runs' heads, so ``parked[0]`` is the lane's earliest
        #: parked key and an empty ``parked`` means nothing is parked.
        #: Only ``Simulator.issue`` (with its out-of-order helper
        #: ``_park_late``) and ``Simulator._flush_parked`` mutate them;
        #: :meth:`parked_records` reads them all.
        self.parked: list = []
        self.streams: Dict[int, Any] = {}

    def parked_records(self):
        """Every parked record, in key order (a lazy merge of the runs)."""
        return heapq.merge(*self.streams.values())
