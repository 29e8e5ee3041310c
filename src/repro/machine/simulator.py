"""The discrete-event simulator core (this repo's stand-in for Fastsim).

The engine keeps a heap of in-flight messages ordered by
``(delivery time, destination, sequence)``.  Executing a message on a lane
is delegated to a *dispatcher* installed by the UDWeave runtime; the
dispatcher runs the Python event handler, charges cycles per the Table 2
cost model, and issues outgoing messages and DRAM accesses back through
:meth:`Simulator.issue` and :meth:`Simulator.dram_issue` (the one
message-issue and the one DRAM-issue site).  Mail to the host is keyed
like any message but never queued: every :meth:`Simulator.run`,
sequential or sharded, ends in one :meth:`Simulator._settle` that
delivers it in key order and files the quiescence verdict.

Determinism: the heap key is assigned entirely at the point of issue —
``seq`` packs the issuing actor (host, lane, or node) with that actor's
private event count — and message latencies are fixed (reordering comes
only from a ``repro.faults.FaultPlan``, whose draws are content-keyed),
so every simulation run is exactly reproducible.  Because the key never
depends on *global* issue order, the event order is also independent of
how the machine is partitioned into shards: a conservative parallel run
(``shards=N``, see ``repro.machine.parallel``) produces bit-identical
results to the sequential drain.

Remote split-phase DRAM is event-driven: the requester admits its own
injection channel at issue time and queues the access — one
:class:`DramAccess` — at the memory node; the memory channel and the
reply virtual channel are touched only when it pops — in arrival order,
at the node that owns them — and the same object is then queued again as
the reply.  That locality (every channel is mutated only by its owning
node) is what makes the machine shardable by node.

Hot path: event handlers model 10-100 machine instructions (paper
§2.1.1), so a single figure-9 sweep point executes hundreds of thousands
of Python-dispatched events and per-event overhead here dominates
host-side wall-clock.  The drain loop therefore works on plain
``(time, dest, seq, record)`` heap tuples, caches the lane lookup across
consecutive same-lane deliveries, inlines the lane busy-clock accounting,
and keeps only scalar counters per event — per-label event counts come
from the flight recorder's ``record="full"`` lane spans and per-lane cycle
totals are recovered from the lanes themselves after the drain (see
``repro.machine.stats``).
"""

from __future__ import annotations

import contextlib
import gc
import heapq
import math
from bisect import bisect_left, insort
from collections import deque
from heapq import heapify, heappop, heappush, heapreplace
from itertools import islice, takewhile
from typing import Callable, List, Optional, Tuple

from .config import MachineConfig
from .events import HOST_NWID, DramAccess, MessageRecord
from .lane import Lane
from .memory import MemorySystem
from .network import Network
from .stats import SimStats

#: dispatcher(sim, lane, record, start_time) -> cycles consumed
Dispatcher = Callable[["Simulator", Lane, MessageRecord, float], float]

#: bits reserved for one actor's private event count in a heap ``seq``.
#: 2**44 pushes per actor is far beyond any run this repo executes.
ACTOR_SEQ_BITS = 44

#: width, in simulated cycles, of one far-tier bucket of the event queue
#: (see :meth:`Simulator._push`).  A power of two, so ``time // W`` is
#: exact and ``time < (b + 1) * W`` holds exactly when
#: ``floor(time / W) <= b`` — bucket membership never disagrees with the
#: heap's own float comparison.  A constant, not a config field: it
#: moves host time only, and no workload wants a different value.
BUCKET_CYCLES = 1024.0

#: event times must lie strictly inside ``(-limit, limit)``: below
#: ``2**53`` buckets every bucket id and bucket edge is an exact float.
#: NaN and the infinities fail the same comparison.
_TIME_LIMIT = 2.0**53 * BUCKET_CYCLES


class SimulationError(RuntimeError):
    """Raised for malformed programs (bad target, missing dispatcher, ...)."""


def _bad_time(entry) -> None:
    """Reject an event queued at a time outside ``(-_TIME_LIMIT,
    _TIME_LIMIT)`` (NaN and the infinities included), naming it."""
    time, record = entry[0], entry[3]
    raise SimulationError(
        f"event {getattr(record, 'label', type(record).__name__)!r} "
        f"scheduled at {time!r}: event times must be finite (and "
        f"within {_TIME_LIMIT:g} cycles)"
    )


class QuiescenceStall(SimulationError):
    """The machine stopped making progress while threads are pending.

    Raised by the liveness watchdog (``watchdog_cycles=``) when only
    idle-marked events (KVMSR quiescence polls, retransmit timers) have
    executed for longer than the threshold of *simulated* time, and by
    harness runners when a drain ends with an empty heap but live
    threads — the silent-hang shape a lost message or credit produces.

    ``diagnostic`` carries :meth:`Simulator.stall_dump`: the next queued
    events, blocked threads, and whatever the registered diagnostic
    providers report (KVMSR contributes outstanding reduce credits).
    """

    def __init__(self, message: str, diagnostic: Optional[dict] = None):
        if diagnostic:
            message = message + "\n" + _render_dump(diagnostic)
        super().__init__(message)
        self.diagnostic = diagnostic or {}


def _render_dump(dump: dict, indent: str = "  ") -> str:
    """Human-readable rendering of a stall diagnostic dump."""
    lines = []
    for key, value in dump.items():
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            for k, v in value.items():
                lines.append(f"{indent}  {k}: {v!r}")
        elif isinstance(value, (list, tuple)):
            lines.append(f"{indent}{key}:")
            for item in value:
                lines.append(f"{indent}  - {item!r}")
        else:
            lines.append(f"{indent}{key}: {value!r}")
    return "\n".join(lines)


@contextlib.contextmanager
def collector_quiet():
    """Hold off CPython's *full* cyclic collections for the block.

    A drain keeps its whole in-flight population alive — heap tuples and
    records, 100k+ on a DRAM-streaming app — and every generation-2 pass
    re-traverses all of it to find nothing: records hold no reference
    back to whatever holds them, so refcounting frees each one the
    moment it pops.  Young collections stay on (handler-made cycles are
    still reclaimed), the collector is never disabled, and the
    threshold is restored however the block exits.  CPython >= 3.14
    ignores ``threshold2``; there this is a harmless no-op.
    """
    young, old, full = gc.get_threshold()
    gc.set_threshold(young, old, 1 << 30)
    try:
        yield
    finally:
        gc.set_threshold(young, old, full)


class Simulator:
    """Event-driven simulation of one UpDown machine.

    ``shards`` > 1 partitions the machine's nodes into that many shards
    and drains them through conservative epoch windows, in this process
    (see ``repro.machine.parallel``).  Results are bit-identical to the
    sequential (``shards=1``) drain.
    """

    def __init__(
        self,
        config: MachineConfig,
        dispatcher: Optional[Dispatcher] = None,
        memory_banks_per_node: int = 1,
        recorder=None,
        shards: int = 1,
        faults=None,
        watchdog_cycles: Optional[float] = None,
    ) -> None:
        self.config = config
        self.dispatcher = dispatcher
        #: flight recorder (``repro.observe``), or None — the off tier.
        #: Hook sites hold pre-bound methods (or None) so a disabled
        #: recorder costs one pointer test.
        self.recorder = recorder
        channel_rec = (
            recorder if recorder is not None and recorder.record_channels
            else None
        )
        self.network = Network(config, recorder=channel_rec)
        self.memory = MemorySystem(
            config,
            banks_per_node=memory_banks_per_node,
            recorder=channel_rec,
            faults=faults,
        )
        self.stats = SimStats()
        #: the event queue, in two tiers (see :meth:`_push`): ``_heap``
        #: orders the entries due before ``_near_end``; later ones wait
        #: unordered in ``_far[floor(time / BUCKET_CYCLES)]``, the live
        #: bucket ids in their own small heap.  A non-empty queue always
        #: has a non-empty ``_heap``, whose head is the global minimum.
        self._heap: List[Tuple[float, int, int, MessageRecord]] = []
        self._near_end: float = 0.0
        self._far: dict = {}
        self._far_ids: List[float] = []
        #: host mail (``HOST_NWID``) keyed but not yet in ``host_inbox``:
        #: it never enters the event queue, and :meth:`_settle` delivers
        #: it at drain end.
        self._host_mail: List[Tuple[float, int, int, MessageRecord]] = []
        #: per-actor push counters (actor 0 = host, 1+L = lane L,
        #: 1+total_lanes+X = node X's memory/arrival actor).  Each actor
        #: counts its own pushes, so heap keys do not depend on global
        #: issue order — the property sharded runs rely on.
        self._actor_seq: dict = {}
        #: shard-routing hook installed by ``repro.machine.parallel``;
        #: ``None`` means push straight into ``self._heap``.
        self._route: Optional[Callable] = None
        #: the per-shard heaps the ``ShardScheduler`` keeps its
        #: queued entries in (``self._heap`` stays empty between its
        #: windows); ``None`` when ``self._heap`` holds them.
        self._shard_heaps: Optional[List[list]] = None
        self._lanes: dict[int, Lane] = {}
        #: each shard's lanes, appended as :meth:`lane` creates them (the
        #: window loop flushes and scans parked records shard by shard);
        #: ``None`` for a sequential machine.
        self._shard_lanes: Optional[List[List[Lane]]] = None
        self.now: float = 0.0
        #: messages addressed to the host (program results / completion).
        self.host_inbox: List[Tuple[float, MessageRecord]] = []
        # --- shard configuration -------------------------------------
        self.shards = shards
        self._scheduler = None
        self._shard_of_node: Optional[List[int]] = None
        if shards < 1:
            raise SimulationError("shards must be at least 1")
        if shards > 1:
            if shards > config.nodes:
                raise SimulationError(
                    f"cannot split {config.nodes} node(s) into {shards} "
                    f"shards — shards cannot exceed nodes"
                )
            if config.conservative_lookahead_cycles <= 0.0:
                raise SimulationError(
                    "sharded execution needs a positive conservative "
                    "lookahead (remote_msg_latency_cycles and "
                    "remote_dram_transit_cycles must both be > 0)"
                )
            nodes = config.nodes
            self._shard_of_node = [
                n * shards // nodes for n in range(nodes)
            ]
            self._shard_lanes = [[] for _ in range(shards)]
            from .parallel import ShardScheduler

            # Built now, so every push — injections before the first
            # drain included — routes to its shard's heap from the start.
            self._scheduler = ShardScheduler(self)
        # hot-path constants (avoid per-send property/attribute chains)
        self._lanes_per_node = config.lanes_per_node
        self._total_lanes = config.total_lanes
        self._message_bytes = config.message_bytes
        self._deliver_time = self.network.deliver_time
        self._dram_hop = self.network.dram_hop
        self._dram_transit = config.remote_dram_transit_cycles
        self._rec_msg = (
            recorder.message
            if recorder is not None and recorder.record_channels
            else None
        )
        # --- fault injection (repro.faults.FaultPlan) -----------------
        #: the attached fault plan, or None.  Each fault class gets its
        #: own pre-resolved hook (method pointer or per-node table) so a
        #: fault-free machine pays one pointer test per decision point —
        #: the same zero-cost-off discipline as the recorder.
        self.faults = faults
        if faults is not None:
            self._fault_msg = (
                faults.message_fault if faults.has_message_faults else None
            )
            self._fault_delay = faults.delay_cycles
            self._fault_stall = (
                faults.lane_stall if faults.has_lane_stalls else None
            )
            # an all-``inf`` map never fails: no per-event dead-tick test
            dead = faults.dead_ticks(config.nodes)
            self._fault_dead = dead if min(dead) < math.inf else None
        else:
            self._fault_msg = None
            self._fault_delay = 0.0
            self._fault_stall = None
            self._fault_dead = None
        self._rec_fault = recorder.fault if recorder is not None else None
        # --- batched dispatch (host-side optimization; see DESIGN.md) --
        # Batch-safe reduce records are *parked* at emit time on their
        # target lane — priced, counted and sequenced exactly as a send
        # — then executed in same-plan runs by a compiled executor just
        # before the lane's state is next observed; results are
        # bit-identical.  Each label's plan decides whether its records
        # park (``repro.udweave.ir.lower_reduce_entry``).
        #: records currently parked machine-wide (0 ⇒ flush paths skip).
        self._parked_total = 0
        #: per reduce-entry label, the emit path's lowering verdicts.
        self._reduce_entries: dict = {}
        # --- reliable delivery (repro.faults.ReliableTransport) -------
        #: installed by the UDWeave runtime when ``reliable=`` is set;
        #: None costs one pointer test per send.
        self._transport = None
        # --- liveness watchdog ----------------------------------------
        #: raise :class:`QuiescenceStall` when only idle-marked events
        #: execute for this many *simulated* cycles; None disables.
        self._watchdog_cycles = (
            float(watchdog_cycles) if watchdog_cycles is not None else None
        )
        wd = self._watchdog_cycles
        if wd is not None and not 0 < wd < math.inf:
            raise SimulationError(
                "watchdog_cycles must be positive and finite"
            )
        #: labels that do not count as forward progress (KVMSR quiescence
        #: polls, retransmit timers); populated via :meth:`mark_idle_labels`.
        self._wd_idle_labels: set = set()
        self._wd_last_progress: float = 0.0
        #: (name, fn(sim) -> data) providers consulted by :meth:`stall_dump`.
        self._diag_providers: List[tuple] = []

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    def lane(self, network_id: int) -> Lane:
        """The lane object for ``network_id`` (created lazily)."""
        ln = self._lanes.get(network_id)
        if ln is None:
            cfg = self.config
            cfg._check_nwid(network_id)
            ln = Lane(
                network_id,
                node=cfg.node_of(network_id),
                accel=cfg.accel_of(network_id),
            )
            self._lanes[network_id] = ln
            if self._shard_lanes is not None:
                self._shard_lanes[self._shard_of_node[ln.node]].append(ln)
        return ln

    @property
    def instantiated_lanes(self) -> int:
        return len(self._lanes)

    # ------------------------------------------------------------------
    # Liveness watchdog & diagnostics
    # ------------------------------------------------------------------

    def attach_transport(self, transport) -> None:
        """Install a reliable-delivery layer (``repro.faults.transport``).

        Must happen before any tracked traffic is sent and before the
        first emit (a reduce plan lowered with a transport attached
        refuses to park); the transport's control labels are marked idle
        for the watchdog.
        """
        self._transport = transport
        from repro.faults.transport import IDLE_CONTROL_LABELS

        self._wd_idle_labels |= IDLE_CONTROL_LABELS

    def mark_idle_labels(self, labels) -> None:
        """Declare event labels that do not prove forward progress.

        The watchdog measures simulated time since the last *non-idle*
        event; frameworks register their busy-wait labels here (KVMSR's
        quiescence-poll chain does) so a stuck job spinning on polls
        raises :class:`QuiescenceStall` instead of running forever.  Mark
        before the label's first emit: idle labels are never parked.
        """
        self._wd_idle_labels |= set(labels)

    def add_diagnostic_provider(self, name: str, provider) -> None:
        """Register ``provider(sim) -> data`` for :meth:`stall_dump`."""
        self._diag_providers.append((name, provider))

    def _live_threads(self) -> int:
        return sum(len(ln.threads) for ln in self._lanes.values())

    def stall_dump(self, limit: int = 8) -> dict:
        """Diagnostic snapshot for a stalled machine.

        Covers the three things a hung run needs triaged: what is still
        *in flight* (the next queued events and the earliest parked
        records, each ``(time, nwid, label)`` in pop order; a DRAM
        access still heading to memory node ``m`` reads
        ``"dram→<reply label>@m"``, or ``"dram→write@m"`` without a
        reply), what is still *waiting* (live threads per lane), and
        whatever registered providers know about protocol state (KVMSR
        reports outstanding reduce credits).
        """
        queued = self._queued()
        total_lanes = self._total_lanes
        next_events = [
            (t, dest, (
                # a DRAM access still heading to its memory node
                f"dram→{r.label or 'write'}@{r.memory_node}"
                if dest >= total_lanes else r.label
            ))
            for t, dest, _seq, r in heapq.nsmallest(limit, queued)
        ]
        next_parked = [
            (t, nwid, label)
            for t, nwid, _seq, label in heapq.nsmallest(limit, (
                (t, nwid, seq, plan.label)
                for nwid, ln in self._lanes.items()
                for t, seq, plan, _ops in islice(ln.parked_records(), limit)
            ))
        ]
        blocked = []
        for nwid in sorted(self._lanes):
            ln = self._lanes[nwid]
            for tid in sorted(ln.threads):
                if len(blocked) >= 2 * limit:
                    break
                blocked.append((nwid, tid, type(ln.threads[tid]).__name__))
        dump = {
            "now": self.now,
            "last_progress_tick": self._wd_last_progress,
            "watchdog_cycles": self._watchdog_cycles,
            "heap_events": len(queued),
            "parked_records": self._parked_total,
            "next_events": next_events,
            "next_parked": next_parked,
            "pending_threads": self._live_threads(),
            "blocked_threads": blocked,
        }
        for name, provider in self._diag_providers:
            try:
                dump[name] = provider(self)
            except Exception as exc:  # diagnostics must never mask the stall
                dump[name] = f"<diagnostic provider failed: {exc!r}>"
        return dump

    # ------------------------------------------------------------------
    # Message transport
    # ------------------------------------------------------------------

    def _push(self, time: float, record, actor: int) -> None:
        """The single keying point for everything delivered later.

        Every queued delivery — messages from :meth:`issue`, host
        injections, lane-local alarms, DRAM accesses and their replies —
        funnels through here, so the shard scheduler has one place to
        hook (``self._route``) when events must land in a per-shard heap
        instead of the global heap.  (Parked records skip the queue:
        :meth:`issue` keys them the same way and parks them on their
        lanes.)  ``actor`` identifies the issuing execution context; its
        private counter makes the key unique and shard-independent.

        Host mail is keyed the same way but never queued: it has no
        feedback into the machine, so it waits in ``_host_mail`` for
        :meth:`_settle`, in every mode.  Unrouted (plain sequential)
        lane and DRAM pushes land in one of two tiers: the near heap
        when due before ``_near_end``, a far bucket otherwise.  Routed
        pushes go to the shard scheduler's own heaps and never populate
        the far tier.
        """
        aseq = self._actor_seq
        count = aseq.get(actor, 0)
        aseq[actor] = count + 1
        dest = record.network_id
        entry = (time, dest, (actor << ACTOR_SEQ_BITS) | count, record)
        if dest < 0:
            if not -_TIME_LIMIT < time < _TIME_LIMIT:
                _bad_time(entry)
            self._host_mail.append(entry)
            return
        route = self._route
        if route is not None:
            route(entry)
        elif -_TIME_LIMIT < time < self._near_end:
            heapq.heappush(self._heap, entry)
        else:
            # Far tier.  Heap cost grows with the in-flight population,
            # and an app that hides DRAM latency keeps 100k+ events
            # outstanding; only the ones due soonest need ordering.  The
            # rest append to their time bucket, comparison-free, and
            # _refill heapifies a bucket when the near tier runs dry.
            # Every far entry is later than every near one and equal
            # times share a bucket, so pop order is the single-heap
            # order.  Ids are whole-number floats: floor division, where
            # int() would merge buckets -1 and 0.
            bucket_id = time // BUCKET_CYCLES
            bucket = self._far.get(bucket_id)
            if bucket is not None:
                bucket.append(entry)
            else:
                self._open_bucket(bucket_id, entry)

    def _open_bucket(self, bucket_id: float, entry) -> None:
        """Queue the first ``entry`` of a far bucket — or, when the
        queue is empty, open a near window around it instead: the queue
        is never non-empty behind an empty ``_heap``.  A non-finite time
        has no bucket (its id is NaN), so it always arrives here."""
        if not -_TIME_LIMIT < entry[0] < _TIME_LIMIT:
            _bad_time(entry)
        if not self._heap:
            self._near_end = (bucket_id + 1.0) * BUCKET_CYCLES
            self._heap.append(entry)
        else:
            self._far[bucket_id] = [entry]
            heapq.heappush(self._far_ids, bucket_id)

    def _refill(self) -> None:
        """Move the earliest far bucket into the (just emptied) near
        tier, in place — drains hold ``_heap`` by reference."""
        ids = self._far_ids
        if ids:
            bucket_id = heapq.heappop(ids)
            heap = self._heap
            heap.extend(self._far.pop(bucket_id))
            heapq.heapify(heap)
            self._near_end = (bucket_id + 1.0) * BUCKET_CYCLES

    def _queued(self) -> list:
        """Every pending entry, in no particular order: both tiers, or
        the shard heaps when the shard scheduler holds them, and the
        undelivered host mail."""
        heaps = self._shard_heaps
        if heaps is None:
            heaps = [self._heap, *self._far.values()]
        return [entry for heap in (*heaps, self._host_mail) for entry in heap]

    def send(
        self,
        record: MessageRecord,
        t_issue: float,
        src_node: Optional[int],
    ) -> float:
        """Put ``record`` on the wire at ``t_issue``; returns delivery time.

        :meth:`issue`'s one-element case.  ``src_node=None`` is host
        injection (program start); those sends are counted under
        ``messages_host_injected``, not as local fabric traffic — they
        never touch the modeled network.
        """
        return self.issue(
            record.src_network_id, src_node,
            ((t_issue, record.network_id, record),),
        )

    def issue(self, src_nwid, src_node, run, plan=None) -> float:
        """Issue a run of lane-bound messages from one actor, in order.

        The machine's one message-issue site: UDWeave's ``send_event``
        and ``spawn`` (``repro.udweave.context``), :meth:`send`, and
        KVMSR's emits (``repro.kvmsr.engine``) all land here.  ``run`` is
        a sequence of ``(t_issue, nwid, payload)``.  Each element bumps
        the issuing actor's sequence, is priced by
        :meth:`Network.deliver_time` (or :meth:`Network.fault_delivery`
        when the fault plan perturbs it), tracked by the reliable
        transport, counted in the ``messages_*`` taxonomy and sampled by
        the recorder, in scalar order, so a run of ``n`` equals ``n``
        one-element calls.  Then it is placed: a :class:`MessageRecord`
        goes on the event queue through :meth:`_push`; an operand tuple
        is parked under ``plan`` on lane ``nwid`` for the plan's batch
        executor (see :meth:`_flush_parked`): appended to the issuing
        actor's run there, whose keys already arrive in order, and
        pushed onto the lane's heap of run heads when that run was
        empty (:meth:`_park_late` takes a key that a message fault
        landed below its run's tail).  Taking a whole run per call keeps
        the per-record cost out of Python call frames.

        The issuing actor is lane ``src_nwid`` when that is a lane, else
        the host (``src_node=None``) or node ``src_node``'s own actor.
        Returns the last element's delivery time (``math.inf`` for a
        dropped message); callers treat issue as fire-and-forget.
        """
        if src_nwid is not None and src_nwid >= 0:
            actor = 1 + src_nwid
        elif src_node is None:
            actor = 0
        else:
            actor = 1 + self._total_lanes + src_node
        stats = self.stats
        rec_msg = self._rec_msg
        guarded = self._transport is not None or self._fault_msg is not None
        total_lanes = self._total_lanes
        lanes_per_node = self._lanes_per_node
        deliver_time = self._deliver_time
        msg_bytes = self._message_bytes
        push = self._push
        if plan is not None:
            aseq = self._actor_seq
            lanes = self._lanes
            actor_bits = actor << ACTOR_SEQ_BITS
        n_local = n_remote = n_parked = 0
        t_deliver = math.inf
        for t_issue, nwid, payload in run:
            if not 0 <= nwid < total_lanes:
                if nwid != HOST_NWID:
                    self.config._check_nwid(nwid)
                # Results mailbox: charge the send at the source but
                # deliver instantly — the host is outside the modeled
                # machine.  Still a message: it appears in the taxonomy
                # (``messages_host_bound``), so result traffic is visible
                # and the counters partition ``messages_sent``.
                push(t_issue, payload, actor)
                stats.messages_host_bound += 1
                if rec_msg is not None:
                    rec_msg(src_node, "host_bound", 0.0)
                t_deliver = t_issue
                continue
            dst_node = nwid // lanes_per_node
            t_dup = None
            if guarded and src_node is not None and src_node != dst_node:
                t_deliver, t_dup = self._issue_guarded(
                    actor, src_nwid, nwid, t_issue, src_node, dst_node,
                    payload,
                )
            else:
                t_deliver = deliver_time(
                    t_issue, src_node, dst_node, msg_bytes
                )
            # Placed once — or twice for a duplicate, never for a drop.
            t = t_deliver
            while t is not None:
                if payload.__class__ is tuple:
                    count = aseq.get(actor, 0)
                    aseq[actor] = count + 1
                    dest = lanes.get(nwid)
                    if dest is None:
                        dest = self.lane(nwid)
                    # Appended to this actor's run, whose keys arrive in
                    # increasing order (its seq grows, its channel is
                    # FIFO), so parking is one float compare and an
                    # append; the run joins the lane's heap of heads
                    # only when it was empty.  seq uniqueness means
                    # comparisons never reach the plan — the heap's own
                    # trick.
                    entry = (t, actor_bits | count, plan, payload)
                    stream = dest.streams.get(actor)
                    if not stream:
                        if stream is None:
                            stream = dest.streams[actor] = deque()
                        stream.append(entry)
                        heappush(dest.parked, entry)
                    elif stream[-1][0] <= t:
                        stream.append(entry)
                    else:
                        self._park_late(dest, stream, entry)
                    n_parked += 1
                else:
                    push(t, payload, actor)
                t, t_dup = t_dup, None
            if src_node is None:
                stats.messages_host_injected += 1
                if rec_msg is not None:
                    rec_msg(src_node, "host_injected", t_deliver - t_issue)
            elif src_node == dst_node:
                n_local += 1
                if rec_msg is not None:
                    rec_msg(src_node, "local", t_deliver - t_issue)
            else:
                n_remote += 1
                # Dropped messages still count as remote traffic — the
                # taxonomy partition of ``messages_sent`` holds under
                # faults — but have no latency to histogram.
                if t_deliver is None:
                    t_deliver = math.inf
                elif rec_msg is not None:
                    rec_msg(src_node, "remote", t_deliver - t_issue)
        stats.messages_sent += len(run)
        if n_local:
            stats.messages_local += n_local
        if n_remote:
            stats.messages_remote += n_remote
        if n_parked:
            self._parked_total += n_parked
            plan.parked += n_parked
        return t_deliver

    def _issue_guarded(
        self, actor, src_nwid, nwid, t_issue, src_node, dst_node, payload
    ) -> Tuple[Optional[float], Optional[float]]:
        """:meth:`issue`'s pricing step for remote traffic with transport
        and/or message faults on; returns ``(t_deliver, t_dup)``.

        Split out so the healthy path stays two pointer tests.
        ``t_deliver`` is ``None`` for a dropped message and ``t_dup`` is
        set only for a duplicate; :meth:`issue` places accordingly, a
        record or a parked tuple alike.  Only records reach the
        transport: a plan refuses to park while one is attached.
        """
        transport = self._transport
        if (
            transport is not None
            and payload.rdt is None
            and src_nwid is not None
            and src_nwid >= 0
        ):
            # Lane-to-lane remote data: assign a sequence number, remember
            # the record for retransmit, arm the timeout timer.  Acks,
            # retransmits, and timers carry ``rdt`` already and are never
            # re-tracked; node-actor and host traffic has no source lane
            # scratchpad to track in and stays best-effort.
            transport.track(payload, t_issue)
        # Keyed off the issuing actor and its private push count — both
        # fixed at the point of issue — so the draw is identical
        # run-to-run and across shard counts (each actor lives on exactly
        # one shard).  Local and host traffic is exempt: the fault model
        # perturbs the *fabric*.
        seq = self._actor_seq
        fmsg = self._fault_msg
        code = fmsg(actor, seq.get(actor, 0)) if fmsg is not None else 0
        if code == 0:
            return self._deliver_time(
                t_issue, src_node, dst_node, self._message_bytes
            ), None
        t_deliver, t_dup = self.network.fault_delivery(
            code, t_issue, src_node, dst_node,
            self._message_bytes, self._fault_delay,
        )
        stats = self.stats
        rec_fault = self._rec_fault
        if t_deliver is None:
            # Consume the actor's sequence slot even though nothing is
            # placed: the fault draw is keyed on (actor, count), so a
            # drop that left the count unchanged would make the actor's
            # next remote send draw the identical value and drop too —
            # every drop would start a correlated drop burst.
            seq[actor] = seq.get(actor, 0) + 1
            stats.faults_messages_dropped += 1
            kind = "msg_drop"
        elif t_dup is not None:
            stats.faults_messages_duplicated += 1
            kind = "msg_duplicate"
        else:
            stats.faults_messages_delayed += 1
            kind = "msg_delay"
        if rec_fault is not None:
            rec_fault(kind, t_issue, (src_nwid, nwid))
        return t_deliver, t_dup

    def alarm(self, t: float, record: MessageRecord) -> None:
        """Schedule a lane-local alarm: ``record`` reaches its own source
        lane at ``t`` without touching the fabric, keyed by that lane's
        actor sequence like any event the lane issues (the reliable
        transport's retransmit timers)."""
        self._push(t, record, 1 + record.src_network_id)

    # ------------------------------------------------------------------
    # Batched dispatch (park at emit, flush before observation)
    # ------------------------------------------------------------------

    @staticmethod
    def _park_late(ln: Lane, run, entry) -> None:
        """Park ``entry`` below the tail of its actor's ``run``.

        Only a message fault (a delay, or a duplicate's second copy)
        delivers an actor's records to one lane out of key order.  The
        entry is insertion-sorted into its run; when it becomes the
        run's head it takes the old head's seat in ``ln.parked``.
        """
        head = run[0]
        insort(run, entry)
        if run[0] is entry:
            parked = ln.parked
            parked[parked.index(head)] = entry
            heapify(parked)

    def _flush_parked(self, ln: Lane, cut) -> int:
        """Execute ``ln``'s parked records with keys below ``cut``;
        returns how many ran (the drain counts them toward its budget).

        ``cut`` is a ``(time, seq)`` key prefix-comparable with parked
        entries — ``(t, s)`` flushes strictly-earlier deliveries before
        an incoming event keyed ``(t, s)`` on this lane; ``(t,)`` flushes
        everything before tick ``t``.  The records come off the lane's
        per-actor runs by a k-way merge of their heads (:meth:`issue`
        keeps each run sorted and ``ln.parked`` a heap of the heads), so
        they leave in key order without a sort; runs execute in maximal
        same-plan groups by the plans' compiled executors, which charge
        per-record costs in exactly the interpreted order — see
        ``repro.udweave.ir``.
        """
        parked = ln.parked
        streams = ln.streams
        lst = []
        while parked and parked[0] < cut:
            e = parked[0]
            run = streams[e[1] >> ACTOR_SEQ_BITS]
            run.popleft()
            lst.append(e)
            if run:
                heapreplace(parked, run[0])
            else:
                heappop(parked)
        n = len(lst)
        if not n:
            return 0
        stats = self.stats
        i = 0
        while i < n:
            plan = lst[i][2]
            j = i + 1
            while j < n and lst[j][2] is plan:
                j += 1
            end = plan.batch_fn(ln, lst, i, j)
            if end > stats.final_tick:
                stats.final_tick = end
            cnt = j - i
            stats.batches_executed += 1
            stats.records_batched += cnt
            stats.events_executed += cnt
            stats.threads_created += cnt
            stats.threads_terminated += cnt
            i = j
        self._parked_total -= n
        # watchdog progress: no parked label is idle-marked
        if lst[-1][0] > self._wd_last_progress:
            self._wd_last_progress = lst[-1][0]
        return n

    def _stall_check(self, t, nwid, wd_last: float, own_lanes) -> float:
        """Raise :class:`QuiescenceStall` if an idle delivery to lane
        ``nwid`` at tick ``t`` is a threshold past the interpreter's
        progress mark — ``_drain``'s stale ``wd_last``, the flushes' marks
        and the records parked on its lanes that pop first — else return
        that mark."""
        marks = [wd_last, self._wd_last_progress]
        for ln in self._lanes.values() if own_lanes is None else own_lanes:
            cut = self._cut_before(ln, t, nwid)
            marks += [e[0] for e in takewhile(cut.__gt__, ln.parked_records())]
        wd_last = self._wd_last_progress = max(marks)
        wd = self._watchdog_cycles
        if t - wd_last > wd:
            raise QuiescenceStall(
                f"no application progress for {t - wd_last:.0f} cycles "
                f"(watchdog threshold {wd:.0f}); only idle/control events "
                f"are executing",
                self.stall_dump(),
            )
        return wd_last

    @staticmethod
    def _cut_before(ln: Lane, t: float, nwid: int) -> tuple:
        """The key below which ``ln``'s parked records pop before a
        delivery to lane ``nwid`` at tick ``t``, in the heap's
        ``(time, dest, seq)`` order."""
        return (t, math.inf) if ln.network_id < nwid else (t,)

    def dram_issue(self, src_nwid, src_node, is_read, run) -> float:
        """Issue a run of split-phase DRAM accesses from one actor, in order.

        The machine's one DRAM issue site: every ``LaneContext`` DRAM
        access (``send_dram_read`` / ``send_dram_reads`` /
        ``send_dram_write``) lands here.
        ``run`` is a sequence of ``(t_issue, access)`` pairs, each
        ``access`` a :class:`DramAccess`, all reads or all writes
        (``is_read``), issued from node ``src_node`` by lane
        ``src_nwid`` (``None`` for the node's own actor).  The actor is
        derived and the ``dram_*`` counters are bumped once per run;
        each element is then handled in order, so a run of ``n`` equals
        ``n`` one-element calls.  A read needs a reply leg (a
        ``label``) — the data has to go somewhere.  A local access is
        serviced at once and queued as its reply (if any) at the ready
        time.  A remote one is event-driven: the request is admitted
        through the requester's injection channel at issue time, then
        the access is queued at the memory node, where the DRAM channel
        and the reply virtual channel are serviced in arrival order when
        it pops (:meth:`_dram_arrive`).

        Remote accesses ride the fabric like any other traffic: each
        direction is admitted through an injection channel at its
        sending node (so DRAM-heavy apps can saturate injection
        bandwidth) and then pays the knob-derived
        ``remote_dram_transit_cycles``.  Reads send a command out and the
        data back; writes send the data out and a completion back.  The
        return direction uses the node's *reply* virtual channel (see
        :meth:`Network.dram_hop`).

        Returns the last element's response time for a local access, or
        its *arrival* time at the memory node for a remote one — that
        response time is not knowable at issue (it depends on the queue
        at the memory node when the request lands).
        """
        if src_nwid is not None and src_nwid >= 0:
            actor = 1 + src_nwid
        else:
            actor = 1 + self._total_lanes + src_node
        stats = self.stats
        total_bytes = n_remote = 0
        t = 0.0
        for t_issue, access in run:
            if access.label is None and is_read:
                raise SimulationError("DRAM read requires a reply label")
            memory_node = access.memory_node
            nbytes = access.nbytes
            total_bytes += nbytes
            if src_node == memory_node:
                t = self.memory.access(
                    t_issue, src_node, memory_node, nbytes,
                    access.local_offset,
                )
                if access.label is not None:
                    self._push(t, access, actor)
                elif t > stats.final_tick:
                    # Fire-and-forget writes still occupy the machine
                    # until they land; the makespan must cover them.
                    stats.final_tick = t
                continue
            n_remote += 1
            msg_bytes = self._message_bytes
            t = self._dram_hop(
                t_issue, src_node, memory_node,
                msg_bytes if is_read else msg_bytes + nbytes,
                self._dram_transit,
            )
            access.network_id = self._total_lanes + memory_node
            access.src_node = src_node
            access.back_bytes = nbytes if is_read else msg_bytes
            self._push(t, access, actor)
        if is_read:
            stats.dram_reads += len(run)
            stats.dram_bytes_read += total_bytes
        else:
            stats.dram_writes += len(run)
            stats.dram_bytes_written += total_bytes
        if n_remote:
            stats.dram_remote_accesses += n_remote
        return t

    def _dram_arrive(self, t_arrive: float, access: DramAccess) -> None:
        """Service a remote access at its memory node.

        Runs when the access pops at its memory node's virtual id in
        :meth:`_drain`, after the memory node's fail-stop check: the
        memory channel is occupied in *arrival* order (requests that
        left their sources earlier are serviced first), the reply rides
        the memory node's reply virtual channel, and the access — if it
        has a reply leg — is queued back to its requesting lane with the
        memory node's own actor counter.  All state touched here belongs
        to ``access.memory_node``, so under sharding this executes on the
        shard that owns it.
        """
        mem_node = access.memory_node
        src_node = access.src_node
        t_ready = self.memory.access(
            t_arrive, src_node, mem_node, access.nbytes, access.local_offset
        )
        t_back = self._dram_hop(
            t_ready, mem_node, src_node, access.back_bytes,
            self._dram_transit, True,
        )
        if access.label is not None:
            access.network_id = access.src_network_id
            self._push(t_back, access, 1 + self._total_lanes + mem_node)
        else:
            stats = self.stats
            if t_back > stats.final_tick:
                stats.final_tick = t_back

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def inject(self, record: MessageRecord, t: float = 0.0) -> None:
        """Host-side program start: deliver ``record`` without fabric cost.

        Injection re-arms the liveness watchdog: the stall the watchdog
        measures is *since the last admitted event*, not absolute
        simulated time.  Open-loop service traffic legitimately leaves
        the machine idle between bursts — only retry timers and poll
        loops (idle-labeled events) execute across the gap — and a
        request admitted at a future tick is proof the idleness is
        intentional.  A genuinely stalled run (no new admissions, only
        idle traffic advancing time) still trips.
        """
        if record.network_id != HOST_NWID:
            self.config._check_nwid(record.network_id)
        if t > self._wd_last_progress:
            self._wd_last_progress = t
        self._push(t, record, 0)

    def run(
        self,
        max_events: Optional[int] = None,
        until: Optional[float] = None,
    ) -> SimStats:
        """Drain the event heap; returns the accumulated statistics.

        ``max_events`` guards against runaway programs: the drain raises
        :class:`SimulationError` once that many events have executed in
        this call.  Batched records count when the drain flushes them,
        and the check fires at the next consistent point — after the
        interpreted event in progress, or after the drain-exit flush —
        so an aborted drain can always be re-entered.

        ``until`` bounds the drain: only events strictly before that tick
        execute, and everything at or after ``until`` stays queued, so
        the caller can re-enter — the stepping the service harness's
        open loop is built on.  It is the same clamp in every mode:
        sharded runs go through the window loop in
        ``repro.machine.parallel``, which cuts its windows at the bound.
        Plain sequential is that loop's body for one shard and one
        unbounded window — a direct :meth:`_drain` call, kept direct
        because apps that call ``run()`` once per round or per service
        step must not pay a coordinator per call.  Either way the run
        ends in :meth:`_settle`, which delivers the host mail and files
        the quiescence verdict; an aborted run (``max_events``, the
        watchdog) raises before it, in every mode alike.

        Sharded and sequential drains park alike; the window loop's three
        rules that keep that bit-exact are in ``repro.machine.parallel``.
        """
        bound = math.inf if until is None else until
        with collector_quiet():
            if self._scheduler is not None:
                self._scheduler.drain(max_events, bound)
            else:
                self._drain(max_events, bound)
        self._settle(bound)
        return self.stats

    def _settle(self, bound: float) -> None:
        """End a drain: deliver the host mail due before ``bound``, then
        file the quiescence verdict.

        The host mailbox has no feedback into the machine, so mail waits
        in ``_host_mail`` (see :meth:`_push`) and lands here in the
        ``(time, seq)`` order a single event queue would pop it in —
        identical for every shard count.  Mail at or after ``bound``
        stays pending, like any event the bound leaves queued.

        Quiesced = nothing left to deliver *and* nothing left waiting:
        no queued entry, no pending mail, no parked record and no live
        thread.  An empty queue with live threads is the silent-hang
        shape (a lost message or credit): callers distinguish it via
        ``stats.quiesced`` / ``stats.pending_threads`` instead of a
        silent return.
        """
        stats = self.stats
        mail = self._host_mail
        if mail:
            # entries are (time, HOST_NWID, seq, record): unique seqs
            # keep comparisons off the record
            mail.sort()
            due = bisect_left(mail, (bound,))
            if due:
                self.host_inbox.extend(
                    [(t, record) for t, _dest, _seq, record in mail[:due]]
                )
                t = mail[due - 1][0]
                if t > stats.final_tick:
                    stats.final_tick = t
                del mail[:due]
        pending = self._live_threads()
        stats.pending_threads = pending
        stats.quiesced = (
            pending == 0
            and not mail
            and self._parked_total == 0
            and not self._heap
            and not any(self._shard_heaps or ())
        )

    def note_reduce_entry(self, label: str, plan) -> None:
        """File one job's lowering verdict for ``label`` (emit path).

        ``plan`` is the :class:`~repro.udweave.ir.HandlerPlan` the
        lowering produced, or ``None`` for a reduce class that does not
        declare ``intrinsic_only`` and therefore was never traced.
        """
        self._reduce_entries.setdefault(label, []).append(plan)

    def batch_report(self) -> dict:
        """Why batched dispatch did or did not happen, as a plain dict.

        ``labels`` has one row per reduce-entry label a
        ``batch_dispatch`` machine has emitted to (none when it is off):
        ``declared`` (the class sets ``intrinsic_only``), ``lowered`` (a
        batch-safe, validated plan exists), the refusal ``reason``
        otherwise — a machine that acts at dispatch (lane stalls,
        fail-stop, the transport) shows there — and the emit side's
        tallies: ``parked`` records and ``guard_declined`` ones (guarded
        plan, once-flag not yet set at emit, sent through the heap
        instead).
        """
        labels = {}
        for label, plans in self._reduce_entries.items():
            row = labels[label] = {
                "declared": False,
                "lowered": False,
                "reason": "not declared intrinsic_only",
                "parked": 0,
                "guard_declined": 0,
            }
            for plan in plans:
                if plan is None:
                    continue
                row["declared"] = True
                row["lowered"] = plan.parkable
                row["reason"] = None if plan.parkable else plan.reason
                row["parked"] += plan.parked
                row["guard_declined"] += plan.guard_declined
        return {"labels": labels}

    def _drain(
        self,
        max_events: Optional[int],
        until: float,
        own_lanes: Optional[List[Lane]] = None,
    ) -> SimStats:
        """The sequential drain loop over ``self._heap`` (see :meth:`run`).

        ``own_lanes`` limits the exit flush to the lanes whose events
        ``self._heap`` holds — one shard's, in a window; every lane when
        ``None``.

        Fused dispatch: when the next heap entry is another delivery to
        the lane that just executed, it runs in the inner loop without
        restarting the outer one.  Both pop sites refill the near tier
        the moment they empty it, so ``heap`` is non-empty whenever
        anything is queued and ``heap[0]`` is always the global next.
        """
        dispatcher = self.dispatcher
        if dispatcher is None:
            raise SimulationError("no dispatcher installed")
        # Locals for everything the per-event path touches: attribute
        # loads in CPython cost as much as the arithmetic they guard.
        heap = self._heap
        heappop = heapq.heappop
        refill = self._refill
        lanes = self._lanes
        lane_of = self.lane
        stats = self.stats
        recorder = self.recorder
        rec_span = (
            recorder.lane_span
            if recorder is not None and recorder.record_lane_spans
            else None
        )
        final_tick = stats.final_tick
        events_executed = 0
        total_lanes = self._total_lanes
        # Lane cache: KVMSR map loops and reduce shuffles deliver bursts
        # of consecutive events to the same lane; skip the dict probe.
        cached_nwid = -1
        cached_lane: Optional[Lane] = None
        processed = 0
        # Fault/watchdog hooks — all None on a healthy, unwatched machine,
        # so each costs one pointer test per event.
        fdead = self._fault_dead
        fstall = self._fault_stall
        rec_fault = self._rec_fault
        wd = self._watchdog_cycles
        wd_idle = self._wd_idle_labels
        wd_last = self._wd_last_progress
        # Batched dispatch: every delivery to a lane first flushes that
        # lane's parked records with earlier keys — one truthiness test
        # per event when the list is empty, one bool test when the
        # feature is off entirely.
        park_chk = self.config.batch_dispatch
        try:
            while heap:
                first = heap[0]
                ev_time = first[0]
                if ev_time >= until:
                    break
                heappop(heap)
                if not heap:
                    refill()
                rec = first[3]
                while True:
                    self.now = ev_time
                    nwid = rec.network_id
                    if nwid == cached_nwid:
                        ln = cached_lane
                    else:
                        if nwid >= total_lanes:
                            # Remote DRAM request arriving at its memory
                            # node — never fused.
                            if (
                                fdead is not None
                                and ev_time >= fdead[rec.memory_node]
                            ):
                                # Fail-stopped memory node: the request
                                # (and any response) vanishes with it.
                                stats.faults_node_dropped += 1
                                if rec_fault is not None:
                                    rec_fault(
                                        "node_drop",
                                        ev_time,
                                        (rec.memory_node,),
                                    )
                                break
                            self._dram_arrive(ev_time, rec)
                            if wd is not None and ev_time > wd_last:
                                wd_last = ev_time
                            break
                        ln = lanes.get(nwid)
                        if ln is None:
                            ln = lane_of(nwid)
                        cached_nwid = nwid
                        cached_lane = ln
                    if park_chk:
                        lp = ln.parked
                        if lp:
                            # Parked records that would have popped
                            # before this delivery execute now, in key
                            # order.  ``lp`` is the heap of the lane's run
                            # heads, so comparing its top keeps the no-op
                            # case inline.
                            e0 = lp[0]
                            t0 = e0[0]
                            if t0 < ev_time or (
                                t0 == ev_time and e0[1] < first[2]
                            ):
                                processed += self._flush_parked(
                                    ln, (ev_time, first[2])
                                )
                    if fdead is not None and ev_time >= fdead[ln.node]:
                        # Whole-node fail-stop: deliveries to a dead node
                        # are discarded (lanes, threads, and scratchpads
                        # stop responding).
                        stats.faults_node_dropped += 1
                        if rec_fault is not None:
                            rec_fault("node_drop", ev_time, (nwid,))
                    else:
                        if wd is not None:
                            if rec.label in wd_idle:
                                # Only idle/control traffic (poll loops,
                                # retry timers, acks) — no application
                                # progress.
                                if ev_time - wd_last > wd:
                                    wd_last = self._stall_check(
                                        ev_time, nwid, wd_last, own_lanes
                                    )
                            elif ev_time > wd_last:
                                wd_last = ev_time
                        busy_until = ln.busy_until
                        start = ev_time if ev_time > busy_until else busy_until
                        if fstall is not None:
                            stall = fstall(nwid, ln.events_executed)
                            if stall:
                                # Transient lane stall: delays this
                                # delivery's service but is not lane work
                                # — busy_cycles (and utilization) exclude
                                # it; the makespan does not.
                                start += stall
                                stats.faults_lane_stalls += 1
                                stats.faults_stall_cycles += stall
                                if rec_fault is not None:
                                    rec_fault(
                                        "lane_stall", ev_time, (nwid, stall)
                                    )
                        cycles = dispatcher(self, ln, rec, start)
                        # lane busy-clock accounting, inline: one call
                        # per event adds up
                        end = start + cycles
                        ln.busy_until = end
                        ln.busy_cycles += cycles
                        ln.events_executed += 1
                        events_executed += 1
                        if rec_span is not None:
                            rec_span(nwid, start, end, rec.label)
                        if end > final_tick:
                            final_tick = end
                        processed += 1
                        if max_events is not None and processed >= max_events:
                            raise SimulationError(
                                f"simulation exceeded max_events={max_events}"
                            )
                    if heap:
                        nxt = heap[0]
                        if (
                            nxt[3].network_id == nwid
                            and nxt[0] < until
                        ):
                            # Fused dispatch: the globally-next event is
                            # another delivery to the same lane — run it
                            # in the tight loop instead of restarting
                            # the outer one.  Taking heap[0] keeps the
                            # pop order untouched; the inner loop
                            # already advances time and checks budgets.
                            # DRAM arrivals' virtual network_ids can
                            # never equal a lane id, so only lane
                            # deliveries fuse.
                            heappop(heap)
                            if not heap:
                                refill()
                            first = nxt
                            rec = nxt[3]
                            ev_time = nxt[0]
                            continue
                    break
            if self._parked_total:
                # Drain bound (or heap exhaustion): everything parked
                # before ``until`` is still owed its execution.
                cut = (until,)
                for ln in lanes.values() if own_lanes is None else own_lanes:
                    if ln.parked:
                        processed += self._flush_parked(ln, cut)
                if max_events is not None and processed >= max_events:
                    raise SimulationError(
                        f"simulation exceeded max_events={max_events}"
                    )
        finally:
            stats.events_executed += events_executed
            stats.events_interpreted += events_executed
            if final_tick > stats.final_tick:
                stats.final_tick = final_tick
            # Watchdog progress survives bounded re-entry (run(until=)
            # stepping and the shard window loop both call _drain many
            # times per logical run); flushes fold in their own.
            if wd_last > self._wd_last_progress:
                self._wd_last_progress = wd_last
            self._sync_lane_stats()
        return stats

    def _sync_lane_stats(self) -> None:
        """Copy per-lane busy-cycle totals into ``stats``.

        Lanes accumulate their own cycles event by event (same float
        addition order the old per-event dict update used), so this
        post-drain copy is bit-identical to hot-path maintenance — at
        zero per-event cost.
        """
        by_lane = self.stats.busy_cycles_by_lane
        for nwid, ln in self._lanes.items():
            if ln.busy_cycles:
                by_lane[nwid] = ln.busy_cycles

    def parallel_metrics(self) -> Optional[dict]:
        """``{"windows": n}`` — epoch windows the shard scheduler has
        coordinated over all drains (0 before a sharded simulator's
        first drain); ``None`` for a sequential simulator.

        Kept out of :class:`SimStats` deliberately: the window count
        describes the host-side coordinator, not the simulated machine,
        and must not perturb fingerprint comparisons against sequential
        runs.
        """
        sched = self._scheduler
        if sched is None:
            return None
        return {"windows": sched.windows}

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def host_messages(self, label: Optional[str] = None) -> List[MessageRecord]:
        """Messages the program sent to the host, optionally by label."""
        return [
            rec
            for _, rec in self.host_inbox
            if label is None or rec.label == label
        ]

    @property
    def elapsed_seconds(self) -> float:
        """Simulated wall-clock: ``final_tick / clock`` (artifact appendix)."""
        return self.config.cycles_to_seconds(self.stats.final_tick)
