"""UpDownRuntime: glue between the machine simulator and UDWeave programs.

The runtime owns the simulator, the program image (label registry), the
global memory manager, and the scratchpad allocator, and installs itself as
the simulator's dispatcher: every delivered message is resolved to a thread
object and an event handler, executed atomically, and charged per Table 2.
"""

from __future__ import annotations

import warnings
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.machine.config import MachineConfig
from repro.machine.events import HOST_NWID, NEW_THREAD, MessageRecord
from repro.machine.lane import Lane
from repro.machine.simulator import Simulator
from repro.machine.stats import SimStats
from repro.memmodel.drammalloc import GlobalMemory
from repro.memmodel.spmalloc import SpAllocator

from . import eventword
from .eventword import (
    FLAG_HOST,
    FLAG_NEW_THREAD,
    EventWordError,
    _FLAG_SHIFT,
    _LABEL_MASK,
    _LABEL_SHIFT,
    _NWID_MASK,
    _THREAD_MASK,
    _THREAD_SHIFT,
)
from .context import IGNRCONT, LaneContext, UDWeaveError
from .program import Program, ProgramError
from .thread import UDThread
from .udlog import UDLog

LabelLike = Union[str, int]


class UpDownRuntime:
    """One simulated UpDown machine ready to execute UDWeave programs."""

    def __init__(
        self,
        config: MachineConfig,
        program: Optional[Program] = None,
        sp_capacity_words: int = 8192,
        memory_banks_per_node: int = 1,
        recorder=None,
        shards: int = 1,
        parallel: Optional[bool] = None,
        faults=None,
        reliable=False,
        watchdog_cycles: Optional[float] = None,
    ) -> None:
        if parallel is not None:
            warnings.warn(
                "UpDownRuntime(parallel=) is ignored; shards always run "
                "in-process; results are bit-identical",
                DeprecationWarning,
                stacklevel=2,
            )
        self.config = config
        self.program = program if program is not None else Program()
        #: optional flight recorder (``repro.observe.FlightRecorder``);
        #: shared with the simulator and read by KVMSR's phase hooks.
        self.recorder = recorder
        self.sim = Simulator(
            config,
            dispatcher=self._dispatch,
            memory_banks_per_node=memory_banks_per_node,
            recorder=recorder,
            shards=shards,
            faults=faults,
            watchdog_cycles=watchdog_cycles,
        )
        self.gmem = GlobalMemory(config)
        self.spalloc = SpAllocator(sp_capacity_words)
        self.udlog = UDLog()
        #: host mailbox labels live in their own namespace (they are not
        #: program events; they terminate at the simulation host).
        self._host_labels: Dict[str, int] = {}
        self._host_label_names: List[str] = []
        #: (thread class, label reference) -> label id.  Label resolution
        #: is pure (registered ids never change, and a registered subclass
        #: always owns a qualified alias for every inherited event), so
        #: hot senders like ``ctx.self_evw("task_done")`` hit this dict
        #: instead of re-walking the MRO with try/except per send.
        self._resolve_cache: Dict[Tuple[type, str], int] = {}
        #: direct reference to the program's dispatch table; ``register``
        #: appends in place so the list identity is stable for the
        #: runtime's lifetime and the dispatcher skips one attribute hop.
        self._handler_table = self.program.handler_table
        #: likewise the id -> ``Class::event`` name list (ids handed out
        #: by :meth:`resolve_label_id` and ids cached in
        #: ``_resolve_cache`` always index it).
        self._label_names = self.program._label_names
        #: opt-in reliable delivery (``repro.faults.transport``).
        #: ``reliable`` accepts ``True`` (defaults) or a
        #: :class:`~repro.faults.ReliabilityConfig`; the transport is
        #: shared with the simulator, which hands it every outbound
        #: remote lane-to-lane send for tracking.
        self.transport = None
        if reliable:
            from repro.faults.transport import (
                ReliabilityConfig,
                ReliableTransport,
            )

            rcfg = reliable if isinstance(reliable, ReliabilityConfig) else None
            self.transport = ReliableTransport(self.sim, rcfg)
            self.sim.attach_transport(self.transport)

    # ------------------------------------------------------------------
    # Program construction
    # ------------------------------------------------------------------

    def register(self, thread_cls: type) -> type:
        """Register a thread class (usable as a decorator)."""
        return self.program.register(thread_cls)

    def dram_malloc(self, *args, **kwargs):
        """Convenience passthrough to :meth:`GlobalMemory.dram_malloc`."""
        return self.gmem.dram_malloc(*args, **kwargs)

    # ------------------------------------------------------------------
    # Label resolution
    # ------------------------------------------------------------------

    def label_id(self, label: str) -> int:
        return self.program.label_id(label)

    def label_name(self, label_id: int) -> str:
        return self.program.label_name(label_id)

    def resolve_label_id(
        self, label: LabelLike, context_thread: Optional[UDThread] = None
    ) -> int:
        """Resolve a label reference to its integer ID.

        Accepts an integer ID, a fully-qualified ``"Class::event"`` string,
        or a bare event name resolved against ``context_thread``'s class
        (walking the MRO, so shared base-class events resolve too).
        """
        if isinstance(label, int):
            self.program.label_name(label)  # validates
            return label
        if context_thread is not None:
            key = (type(context_thread), label)
            cached = self._resolve_cache.get(key)
            if cached is not None:
                return cached
        if "::" in label:
            label_id = self.program.label_id(label)
        elif context_thread is None:
            raise ProgramError(
                f"bare event name {label!r} needs a thread context to resolve"
            )
        else:
            label_id = -1
            for klass in type(context_thread).__mro__:
                try:
                    label_id = self.program.label_id(f"{klass.__name__}::{label}")
                    break
                except ProgramError:
                    continue
            if label_id < 0:
                raise ProgramError(
                    f"event {label!r} not registered for "
                    f"{type(context_thread).__name__} or its bases"
                )
        if context_thread is not None:
            self._resolve_cache[key] = label_id
        return label_id

    def evw(
        self, network_id: int, label: str, thread: Optional[int] = None
    ) -> int:
        """Host-side event-word construction (program start, tests)."""
        return eventword.encode(network_id, self.program.label_id(label), thread)

    def host_evw(self, tag: str = "done") -> int:
        """An event word that delivers to the host mailbox under ``tag``.

        Programs use it as a completion continuation; the host reads
        results via :meth:`host_messages`.
        """
        label_id = self._host_labels.get(tag)
        if label_id is None:
            label_id = len(self._host_label_names)
            self._host_labels[tag] = label_id
            self._host_label_names.append(tag)
        return eventword.encode(0, label_id, thread=0, host=True)

    # ------------------------------------------------------------------
    # Message fabrication
    # ------------------------------------------------------------------

    def record_for(
        self,
        evw: int,
        operands: Tuple[Any, ...],
        cont: Optional[int],
        src_network_id: Optional[int],
    ) -> MessageRecord:
        """Build the wire record for a send to event word ``evw``."""
        # eventword.decode, inlined — this runs once per message send.
        if evw < 0 or evw >= 1 << 64:
            raise EventWordError(f"event word {evw:#x} is not a 64-bit value")
        flags = evw >> _FLAG_SHIFT
        label_id = (evw >> _LABEL_SHIFT) & _LABEL_MASK
        if flags & FLAG_HOST:
            return MessageRecord(
                HOST_NWID,
                0,
                self._host_label_names[label_id],
                operands,
                cont,
                src_network_id,
                "msg",
                label_id,
            )
        # the mask keeps label_id >= 0, so only the top end needs a check
        try:
            label = self._label_names[label_id]
        except IndexError:
            raise ProgramError(f"unknown label id {label_id}") from None
        return MessageRecord(
            evw & _NWID_MASK,
            NEW_THREAD
            if flags & FLAG_NEW_THREAD
            else (evw >> _THREAD_SHIFT) & _THREAD_MASK,
            label,
            operands,
            cont,
            src_network_id,
            "msg",
            label_id,
        )

    # ------------------------------------------------------------------
    # Program start & execution
    # ------------------------------------------------------------------

    def start(
        self,
        network_id: int,
        label: str,
        *operands: Any,
        cont: Optional[int] = IGNRCONT,
        t: float = 0.0,
    ) -> None:
        """Host-injected program start: create a thread and run ``label``."""
        record = self.record_for(
            self.evw(network_id, label), operands, cont, src_network_id=None
        )
        self.sim.inject(record, t)

    def run(self, max_events: Optional[int] = None) -> SimStats:
        """Run to quiescence; returns machine statistics."""
        return self.sim.run(max_events=max_events)

    def shutdown(self) -> None:
        """A no-op: the runtime holds no process or OS resource.

        Kept, like the ignored ``parallel=`` keyword, so existing callers
        keep working; safe to call any number of times.
        """

    def host_messages(self, tag: Optional[str] = None) -> List[MessageRecord]:
        return self.sim.host_messages(tag)

    @property
    def elapsed_seconds(self) -> float:
        return self.sim.elapsed_seconds

    # ------------------------------------------------------------------
    # Dispatch (installed on the simulator)
    # ------------------------------------------------------------------

    def _dispatch(
        self, sim: Simulator, lane: Lane, record: MessageRecord, start: float
    ) -> float:
        # Reliable-delivery interception (repro.faults.transport): tagged
        # records never reach label resolution as-is — acks and timers
        # are pure protocol, data records pay dedup + ack before (or
        # instead of, for suppressed duplicates) handler execution.
        rdt = record.rdt
        if rdt is not None:
            transport = self.transport
            tag = rdt[0]
            if tag == "d":
                duplicate, pre = transport.on_data(lane, record, start)
                if duplicate:
                    return pre
            elif tag == "a":
                return transport.on_ack(lane, record)
            else:
                return transport.on_timer(lane, record, start)
        else:
            pre = 0.0
        # Interned fast path: records built by this runtime carry the
        # label id resolved at send time; hand-built records (tests) fall
        # back to string resolution.
        label_id = record.label_id
        if label_id < 0:
            label_id = self.program.label_id(record.label)
        cls, func = self._handler_table[label_id]
        tid = record.thread
        if tid == NEW_THREAD:
            thread_obj = cls()
            # thread ids are recycled per lane (see ``Lane._next_tid``)
            free_tids = lane._free_tids
            if free_tids:
                tid = free_tids.pop()
            else:
                tid = lane._next_tid
                lane._next_tid = tid + 1
            lane.threads[tid] = thread_obj
            sim.stats.threads_created += 1
        else:
            thread_obj = lane.threads.get(tid)
            if thread_obj is None:
                raise UDWeaveError(
                    f"event {record.label!r} addressed dead thread {tid} "
                    f"on lane {lane.network_id}"
                )
            if thread_obj.__class__ is not cls:
                if not isinstance(thread_obj, cls):
                    raise UDWeaveError(
                        f"event {record.label!r} delivered to thread of type "
                        f"{type(thread_obj).__name__} on lane {lane.network_id}"
                    )
                # Subclass instance addressed via a base-class label:
                # honor the instance's own override, like getattr did.
                func = getattr(type(thread_obj), self.program.handler(label_id)[1])
        ctx = lane.ctx_cache
        if ctx is None:
            ctx = lane.ctx_cache = LaneContext(
                self, lane, thread_obj, tid, record, start
            )
        else:
            ctx._reset(thread_obj, tid, record, start)
        if pre:
            # receiver-side transport work (dedup probe + ack send)
            # charged to the same lane occupancy as the delivery
            ctx.cycles += pre
        func(thread_obj, ctx, *record.operands)
        if ctx.terminated:
            if lane.threads.pop(tid, None) is not None:
                lane._free_tids.append(tid)
            sim.stats.threads_terminated += 1
        elif not ctx.yielded:
            raise UDWeaveError(
                f"event {record.label!r} returned without yield or "
                f"yield_terminate"
            )
        return ctx.cycles
