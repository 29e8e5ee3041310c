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
        #: batch-dispatch staging area: reduce records parked at emit
        #: time, flushed in key order before the lane's state is next
        #: observed (``repro.udweave.ir``).  Each issuing actor's records
        #: under one plan form one key-sorted :class:`ParkRun` in
        #: ``streams[(actor, plan)]``, held column by column; ``parked``
        #: is the heap of the runs' heads, ``(time, seq, run)``, so
        #: ``parked[0]`` is the lane's earliest parked key and an empty
        #: ``parked`` means nothing is parked.  A run leaves ``streams``
        #: when its last record is flushed.  Only ``Simulator.issue``
        #: (with its out-of-order helper ``_park_late``) and
        #: ``Simulator._flush_parked`` mutate them; :meth:`parked_records`
        #: reads them all.
        self.parked: list = []
        self.streams: Dict[Any, "ParkRun"] = {}

    def parked_records(self):
        """Every parked record as ``(time, seq, plan, payload)``, in key
        order (a lazy merge of the runs)."""
        return heapq.merge(*[run.records() for run in self.streams.values()])


class ParkRun:
    """One actor's records parked on one lane under one plan.

    A record is a slot in typed columns, not an object: ``times``
    (``array('d')``, delivery ticks) and ``counts`` (``array('q')``, the
    actor's private event counts; a record's seq is ``bits | count``),
    plus ``payloads`` (a list) only when the plan's executor reads
    operands (``plan.reads``; ``None`` otherwise, every payload being
    ``()``).  The records from index ``head`` on are live, in
    ``(time, seq)`` order; the flush consumes from ``head`` and compacts
    the consumed prefix away.  ``key`` is the run's ``(actor, plan)``
    key in ``Lane.streams``.

    ``Simulator.issue`` opens a run by filling every slot on its first
    record (there is no ``__init__``: runs open and close as often as a
    lane's backlog drains, and a Python constructor would be one more
    call each time).
    """

    __slots__ = ("key", "bits", "plan", "times", "counts", "payloads", "head")

    def records(self):
        """The live records as ``(time, seq, plan, payload)``, in order."""
        bits, plan, times, counts = self.bits, self.plan, self.times, self.counts
        payloads = self.payloads
        for i in range(self.head, len(times)):
            yield (times[i], bits | counts[i], plan,
                   () if payloads is None else payloads[i])
