"""LaneContext: the UDWeave intrinsics available inside an event handler.

One context exists per event activation.  It charges lane cycles (Table 2)
for every intrinsic, timestamps outgoing messages at the issue point within
the event, and implements the paper's §2.1.2 intrinsics:

* ``evw_new(networkID, label)`` — event word for a new thread on a lane;
* ``evw_update_event(evw, label)`` — re-label an event word;
* ``send_event(evw, *operands, cont=...)`` — message send / task creation;
* ``send_dram_read`` / ``send_dram_write`` — split-phase global memory,
  and ``send_dram_reads`` — a whole list in 8-word split-phase reads;
* ``yield_()`` / ``yield_terminate()`` — software thread management.

Functional-simulation note: DRAM payload data is read/written when the
request *issues* (a read's words are copied then and decoded when its
reply is dispatched); only the timing flows through the memory model.  UpDown
imposes no global memory ordering either, so correct programs (like all the
apps in this repo) must not rely on racing accesses — see DESIGN.md.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Union

from repro.machine.events import NEW_THREAD, DramAccess, MessageRecord
from repro.machine.lane import Lane

from . import eventword
from .thread import UDThread

#: Continuation sentinel: "no continuation" (paper's IGNRCONT).
IGNRCONT = None

#: Max words per split-phase DRAM read: responses arrive in operand
#: registers, of which there are eight (paper reads neighbors in groups
#: of 8 for exactly this reason).
MAX_DRAM_READ_WORDS = 8

LabelLike = Union[str, int]

#: Upper bound (exclusive) of a charge: ``work`` rejects NaN and ±inf.
_INF = float("inf")


class UDWeaveError(RuntimeError):
    """Raised for programming errors in UDWeave application code."""


class LaneContext:
    """Execution context of one event activation on one lane.

    Contexts are *pooled*: the runtime parks one instance per lane
    (``Lane.ctx_cache``) and calls :meth:`_reset` at each dispatch instead
    of constructing a fresh object per event — events on a lane execute
    atomically and nothing may retain a context across activations, so a
    single reusable instance per lane is safe and saves an allocation plus
    ``__init__`` on every event.  The fields fixed per lane (``runtime``,
    ``sim``, ``lane``, ``costs``) are set once at pool construction.
    """

    __slots__ = (
        "runtime",
        "sim",
        "lane",
        "costs",
        "thread",
        "tid",
        "record",
        "start",
        "cycles",
        "yielded",
        "terminated",
    )

    def __init__(
        self,
        runtime: "UpDownRuntime",  # noqa: F821 - runtime.py imports us
        lane: Lane,
        thread: UDThread,
        tid: int,
        record: MessageRecord,
        start: float,
    ) -> None:
        self.runtime = runtime
        self.sim = runtime.sim
        self.lane = lane
        #: Table 2 cost bundle, cached — intrinsics charge cycles on every
        #: call and ``self.costs`` beats the three-hop attribute chain.
        self.costs = runtime.config.costs
        self.thread = thread
        self.tid = tid
        self.record = record
        self.start = start
        self.cycles: float = float(self.costs.event_dispatch)
        self.yielded = False
        self.terminated = False

    def _reset(
        self, thread: UDThread, tid: int, record: MessageRecord, start: float
    ) -> None:
        """Rearm this pooled context for the next event activation."""
        self.thread = thread
        self.tid = tid
        self.record = record
        self.start = start
        self.cycles = float(self.costs.event_dispatch)
        self.yielded = False
        self.terminated = False

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    @property
    def network_id(self) -> int:
        """The current lane's networkID (the paper's ``curNetworkID``)."""
        return self.lane.network_id

    @property
    def node(self) -> int:
        return self.lane.node

    @property
    def accel(self) -> int:
        return self.lane.accel

    @property
    def time(self) -> float:
        """Current simulated time within this event (cycles)."""
        return self.start + self.cycles

    @property
    def config(self):
        return self.runtime.config

    # ------------------------------------------------------------------
    # Event words (paper §2.1.2 intrinsics)
    # ------------------------------------------------------------------

    @property
    def cevnt(self) -> int:
        """Event word of the *current* event (the paper's ``CEVNT``)."""
        label_id = self.record.label_id
        if label_id < 0:
            label_id = self.runtime.label_id(self.record.label)
        return eventword.encode(
            self.lane.network_id,
            label_id,
            thread=self.tid,
        )

    @property
    def ccont(self) -> Optional[int]:
        """The incoming continuation word (the paper's ``CCONT``)."""
        return self.record.continuation

    # The label sites below probe resolve_label_id's cache inline (as
    # the DRAM reads do): a hit is an id resolve_label_id already
    # validated, and a miss, integer labels included, takes the full
    # checked path.

    def evw_new(self, network_id: int, label: LabelLike) -> int:
        """Event word for event ``label`` on a *new* thread at ``network_id``."""
        runtime = self.runtime
        thread = self.thread
        label_id = runtime._resolve_cache.get((type(thread), label))
        if label_id is None:
            label_id = runtime.resolve_label_id(label, thread)
        return eventword.encode(network_id, label_id)

    def evw_update_event(self, evw: int, label: LabelLike) -> int:
        """Re-label an event word; thread context and lane are unchanged."""
        runtime = self.runtime
        thread = self.thread
        label_id = runtime._resolve_cache.get((type(thread), label))
        if label_id is None:
            label_id = runtime.resolve_label_id(label, thread)
        return eventword.with_label(evw, label_id)

    def self_evw(self, label: LabelLike) -> int:
        """Event word addressing *this* thread at another of its events
        (the common ``evw_update_event(CEVNT, label)`` idiom)."""
        runtime = self.runtime
        thread = self.thread
        label_id = runtime._resolve_cache.get((type(thread), label))
        if label_id is None:
            label_id = runtime.resolve_label_id(label, thread)
        return eventword.encode(self.lane.network_id, label_id, thread=self.tid)

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------

    def send_event(
        self,
        evw: Optional[int],
        *operands: Any,
        cont: Optional[int] = IGNRCONT,
        delay: float = 0.0,
    ) -> None:
        """Send a message (create a task / invoke an event) — ``send_event``.

        ``evw=None`` (an ignored continuation) is a silent no-op so reply
        sites need not branch on whether a caller wanted an answer.

        ``delay`` holds the message back by that many cycles before it
        enters the fabric — the simulation rendering of a software delay
        loop (used by KVMSR's quiescence re-polls).  The issuing lane is
        modeled as free during the delay; see DESIGN.md.
        """
        if evw is None:
            return
        if not 0 <= delay < _INF:
            raise UDWeaveError(f"send delay must be finite and >= 0, got {delay!r}")
        costs = self.costs
        self.cycles += (
            costs.send_message_with_cont if cont is not None else costs.send_message
        )
        lane = self.lane
        record = self.runtime.record_for(evw, operands, cont, lane.network_id)
        t = self.start + self.cycles + delay
        self.sim.issue(lane.network_id, lane.node, ((t, record.network_id, record),))

    def send_reply(self, *operands: Any, cont: Optional[int] = IGNRCONT) -> None:
        """Send to the incoming continuation (no-op when IGNRCONT)."""
        self.send_event(self.ccont, *operands, cont=cont)

    def spawn(
        self,
        network_id: int,
        label: LabelLike,
        *operands: Any,
        cont: Optional[int] = IGNRCONT,
    ) -> None:
        """Sugar: ``send_event(evw_new(network_id, label), ...)``.

        Flattened: spawns dominate KVMSR traffic (every map task and every
        emitted tuple is one), so the record is built directly instead of
        packing an event word in ``evw_new`` only for ``record_for`` to
        unpack it again.  Semantics are identical, including the
        out-of-range ``network_id`` error ``evw_new`` raised.
        """
        runtime = self.runtime
        thread = self.thread
        label_id = runtime._resolve_cache.get((type(thread), label))
        if label_id is None:
            label_id = runtime.resolve_label_id(label, thread)
        if network_id < 0 or network_id > eventword.MAX_NETWORK_ID:
            raise eventword.EventWordError(
                f"networkID {network_id} out of range"
            )
        costs = self.costs
        self.cycles += (
            costs.send_message_with_cont if cont is not None else costs.send_message
        )
        lane = self.lane
        record = MessageRecord(
            network_id,
            NEW_THREAD,
            runtime._label_names[label_id],
            operands,
            cont,
            lane.network_id,
            "msg",
            label_id,
        )
        t = self.start + self.cycles
        self.sim.issue(lane.network_id, lane.node, ((t, network_id, record),))

    # ------------------------------------------------------------------
    # Global memory (split-phase)
    # ------------------------------------------------------------------

    def send_dram_read(
        self,
        va: int,
        nwords: int,
        return_label: LabelLike,
        tag: Any = None,
    ) -> None:
        """Issue a split-phase DRAM read of ``nwords`` ≤ 8 words at ``va``.

        The response is delivered to *this thread* at ``return_label`` with
        the word values as operands (prefixed by ``tag`` when given, so a
        thread with several outstanding reads can tell them apart).  To
        stream a longer list, use :meth:`send_dram_reads`; this is its
        one-chunk case without the chunk index.
        """
        if not (1 <= nwords <= MAX_DRAM_READ_WORDS):
            raise UDWeaveError(
                f"DRAM reads move 1..{MAX_DRAM_READ_WORDS} words, got {nwords}"
            )
        self._read_run(va, nwords, return_label, tag, 0, False)

    def send_dram_reads(
        self,
        va: int,
        nwords: int,
        return_label: LabelLike,
        tag: Any = None,
        work: float = 0,
    ) -> int:
        """Stream ``nwords`` ≥ 0 words at ``va`` to this thread; returns
        the number of split-phase reads issued, ⌈nwords / 8⌉.

        Responses arrive in eight operand registers, so a list is read
        in chunks of :data:`MAX_DRAM_READ_WORDS`.  Chunk *j* covers the
        words from ``i = 8j`` on and costs what one :meth:`send_dram_read`
        of its words followed by ``work(work)`` would, in list order;
        its memory node is its own first word's.  Each response reaches
        ``return_label`` with the words alone, or as ``(tag, i, *words)``
        when ``tag`` is given, so a handler can place its chunk.  The
        whole list is read and bounds-checked before the first chunk is
        charged, and the run is issued through one
        :meth:`Simulator.dram_issue` call.
        """
        if nwords < 0:
            raise UDWeaveError(f"cannot read a list of {nwords} words")
        if not 0 <= work < _INF:
            raise UDWeaveError(f"work must be finite and >= 0, got {work!r}")
        if not nwords:
            return 0
        return self._read_run(va, nwords, return_label, tag, work, True)

    def _read_run(self, va, nwords, return_label, tag, work, indexed) -> int:
        """The one read-reply constructor: ``nwords`` ≥ 1 words at
        ``va`` as one run of 8-word :class:`DramAccess` chunks.

        The words are copied now, once for the whole list (payloads
        apply at issue), and each chunk keeps only its word range; its
        operands — ``(tag, i, *words)`` when ``indexed``, else
        ``(tag, *words)``, or the words alone untagged — are decoded
        when its reply is dispatched.
        """
        runtime = self.runtime
        data, chunks = runtime.gmem.read_chunks_translated(
            va, nwords, MAX_DRAM_READ_WORDS
        )
        # resolve_label_id's cache probe, inlined: a thread reading a
        # vertex at a time names the same return label on every read
        thread = self.thread
        label_id = runtime._resolve_cache.get((type(thread), return_label))
        if label_id is None:
            label_id = runtime.resolve_label_id(return_label, thread)
        label = runtime._label_names[label_id]
        lane = self.lane
        nwid = lane.network_id
        tid = self.tid
        costs = self.costs
        send = costs.send_dram_with_cont
        charge = work * costs.instruction
        start = self.start
        cycles = self.cycles
        run = []
        i = 0
        for mem_node, local_offset, n, unpack in chunks:
            cycles += send
            run.append((start + cycles, DramAccess(
                mem_node, 8 * n, local_offset, nwid, tid, label, label_id,
                tag, data, unpack, i, i if indexed else None,
            )))
            cycles += charge
            i += MAX_DRAM_READ_WORDS
        self.cycles = cycles
        self.sim.dram_issue(nwid, lane.node, True, run)
        return len(run)

    def send_dram_write(
        self,
        va: int,
        values: Sequence[Any],
        ack_label: Optional[LabelLike] = None,
        tag: Any = None,
    ) -> None:
        """Issue a split-phase DRAM write; optional completion ack event."""
        if len(values) < 1:
            raise UDWeaveError("DRAM write needs at least one word")
        costs = self.costs
        self.cycles += (
            costs.send_dram_with_cont if ack_label is not None else costs.send_dram
        )
        mem_node, local_offset = self.runtime.gmem.write_words_translated(
            va, list(values)
        )
        lane = self.lane
        if ack_label is None:
            # issued by the node's own actor: it has no reply to key
            nwid = None
            access = DramAccess(mem_node, len(values) * 8, local_offset)
        else:
            runtime = self.runtime
            label_id = runtime.resolve_label_id(ack_label, self.thread)
            nwid = lane.network_id
            access = DramAccess(
                mem_node, len(values) * 8, local_offset, nwid, self.tid,
                runtime.label_name(label_id), label_id, tag,
            )
        self.sim.dram_issue(nwid, lane.node, False, ((self.time, access),))

    # ------------------------------------------------------------------
    # Scratchpad
    # ------------------------------------------------------------------

    def sp_read(self, key: Any, default: Any = None) -> Any:
        """Load from the lane-private scratchpad (1 cycle)."""
        self.cycles += self.costs.scratchpad_access
        return self.lane.scratchpad.get(key, default)

    def sp_write(self, key: Any, value: Any) -> None:
        """Store to the lane-private scratchpad (1 cycle)."""
        self.cycles += self.costs.scratchpad_access
        self.lane.scratchpad[key] = value

    def sp_delete(self, key: Any) -> None:
        """Remove a key from the lane-private scratchpad (1 cycle).

        Unlike ``sp_write(key, None)`` this frees the slot: drained
        combining-cache entries must not linger as tombstones that a
        capacity audit (or a later epoch) would still see.
        """
        self.cycles += self.costs.scratchpad_access
        self.lane.scratchpad.pop(key, None)

    def sp_once(self, key: Any) -> bool:
        """Test-and-set a write-once flag; ``True`` if it was already set.

        One scratchpad access when the flag is set, two (the read, then
        the write of ``True``) when this call sets it — the cost of the
        ``sp_read`` + ``sp_write`` pair it replaces.  A once-key is
        *monotone*: only ``sp_once`` (or host-side seeding before the
        run) may write it, and nothing may overwrite or delete it.  That
        is what lets batched dispatch lower the already-set arm of a
        handler behind an emit-time guard (``repro.udweave.ir``).
        """
        cost = self.costs.scratchpad_access
        self.cycles += cost
        sp = self.lane.scratchpad
        if key in sp:
            return True
        self.cycles += cost
        sp[key] = True
        return False

    def sp_malloc(self, nwords: int) -> int:
        """Reserve scratchpad words on this lane (see spMalloc)."""
        return self.runtime.spalloc.sp_malloc(self.lane.network_id, nwords)

    # -- accelerator-pooled scratchpad (§2.1.1: "primarily lane private,
    # but can be pooled among the 64 lanes in a UpDown accelerator") -----

    POOLED_ACCESS_CYCLES = 3

    def _pooled_lane(self, lane_in_accel: int) -> "Lane":
        cfg = self.config
        if not (0 <= lane_in_accel < cfg.lanes_per_accel):
            raise UDWeaveError(
                f"pooled scratchpad index {lane_in_accel} outside the "
                f"accelerator's {cfg.lanes_per_accel} lanes"
            )
        nwid = cfg.first_lane_of_accel(self.lane.accel) + lane_in_accel
        sim = self.sim
        target = sim.lane(nwid)
        if sim._parked_total and target.parked:
            # Batched dispatch: a mid-event peek at a sibling's
            # scratchpad is an observation point — parked records that
            # would have popped before this event must land first.
            sim._flush_parked(target, sim._cut_before(
                target, sim.now, self.lane.network_id
            ))
        return target

    def sp_read_pooled(self, lane_in_accel: int, key: Any, default: Any = None):
        """Load from a sibling lane's scratchpad within this accelerator.

        Costs a few cycles (on-chip crossbar) instead of the 1-cycle
        private access.  Reads race with the sibling's own writes exactly
        as on hardware; use for read-mostly pooled state."""
        self.cycles += self.POOLED_ACCESS_CYCLES
        return self._pooled_lane(lane_in_accel).scratchpad.get(key, default)

    def sp_write_pooled(self, lane_in_accel: int, key: Any, value: Any) -> None:
        """Store into a sibling lane's scratchpad within this accelerator."""
        self.cycles += self.POOLED_ACCESS_CYCLES
        self._pooled_lane(lane_in_accel).scratchpad[key] = value

    # ------------------------------------------------------------------
    # Compute & thread management
    # ------------------------------------------------------------------

    def ud_print(self, message: str) -> None:
        """Emit a BASIM_PRINT-style log line (artifact appendix).

        Free of simulated cost (the real simulator's prints are host-side
        too); entries carry the current tick, lane, thread, and event
        label, and are collected on ``runtime.udlog``.
        """
        self.runtime.udlog.emit(
            self.time,
            self.lane.network_id,
            self.tid,
            self.record.label,
            message,
        )

    def work(self, instructions: float) -> None:
        """Charge ``instructions`` of straight-line compute to this event.

        ``instructions`` must be finite and non-negative: a NaN or an
        infinity would poison the lane's clock and, through it, the
        makespan.
        """
        if not 0 <= instructions < _INF:
            raise UDWeaveError(
                f"work must be finite and >= 0, got {instructions!r}"
            )
        self.cycles += instructions * self.costs.instruction

    def yield_(self) -> None:
        """End the event, preserving the thread (paper's ``yield``)."""
        if self.yielded or self.terminated:
            raise UDWeaveError("event already ended")
        self.cycles += self.costs.thread_yield
        self.yielded = True

    def yield_terminate(self) -> None:
        """End the event and deallocate the thread (``yield_terminate``)."""
        if self.yielded or self.terminated:
            raise UDWeaveError("event already ended")
        self.cycles += self.costs.thread_deallocate
        self.terminated = True
