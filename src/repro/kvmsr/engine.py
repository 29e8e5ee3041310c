"""KVMSR: key-value map-shuffle-reduce over shared global state (§2.2).

This module is this repo's rendering of the paper's 1,586-LoC UDWeave KVMSR
library.  The moving parts, all UDWeave threads themselves:

* :class:`KVMSRMaster` — one per invocation.  Partitions the key space per
  the map binding, drives the hierarchical start broadcast, detects
  termination, runs the flush phase, and fires the completion continuation.
* :class:`NodeCoordinator` — per-node control lane (the paper's multi-level
  control for "synchronization and broadcast overhead").  Fans a phase out
  to the node's lanes and aggregates their replies.
* :class:`MapperLane` — per-lane map dispatcher: walks its key block,
  keeps a bounded number of map tasks in flight (matching parallelism to
  "physical thread resources without any application programmer effort",
  §4.1.3), and for PBMW asks the master for more work when it runs dry.
* :class:`MapTask` / :class:`ReduceTask` — base classes for user map and
  reduce workers, providing ``kv_emit``, ``kv_map_return``,
  ``kv_reduce_return``, and the flush hooks.

Termination detection: every map task reports its emit count on
completion; counts aggregate lane → node → master.  Reduce completions
bump a per-lane scratchpad counter; once all maps are done the master
polls the reduce lanes (hierarchically) until the summed reduce count
equals the total emit count.  Counts only grow and never exceed the
total, so a matching sum proves quiescence.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.machine.events import NEW_THREAD, MessageRecord
from repro.machine.stats import SimStats
from repro.udweave.context import MAX_DRAM_READ_WORDS, LaneContext
from repro.udweave.runtime import UpDownRuntime
from repro.udweave.thread import UDThread, event

from .binding import (
    BlockBinding,
    HashBinding,
    LaneSet,
    MapBinding,
    ReduceBinding,
)
from .iterator import ArrayInput, InputSpec, ListInput, RangeInput


class KVMSRError(RuntimeError):
    """Raised for malformed jobs or protocol violations."""


# ---------------------------------------------------------------------------
# Job descriptor
# ---------------------------------------------------------------------------


class KVMSRJob:
    """One KVMSR invocation: what to run, over what keys, bound where.

    The job object is host-side configuration (the program image knows it
    by ``job_id``); task threads reach it through
    ``ctx.runtime`` for binding decisions and the ``payload`` —
    application state such as region addresses (the shared global data
    structures of Figure 3).
    """

    def __init__(
        self,
        runtime: UpDownRuntime,
        map_cls: type,
        input_spec: InputSpec,
        reduce_cls: Optional[type] = None,
        lanes: Optional[LaneSet] = None,
        reduce_lanes: Optional[LaneSet] = None,
        map_binding: Optional[MapBinding] = None,
        reduce_binding: Optional[ReduceBinding] = None,
        max_inflight: int = 64,
        poll_interval_cycles: float = 2_000.0,
        master_lane: Optional[int] = None,
        payload: Any = None,
        name: Optional[str] = None,
    ) -> None:
        if not issubclass(map_cls, MapTask):
            raise KVMSRError("map_cls must subclass kvmsr.MapTask")
        if reduce_cls is not None and not issubclass(reduce_cls, ReduceTask):
            raise KVMSRError("reduce_cls must subclass kvmsr.ReduceTask")
        if max_inflight < 1:
            raise KVMSRError("max_inflight must be at least 1")
        self.runtime = runtime
        self.map_cls = map_cls
        self.reduce_cls = reduce_cls
        self.input = input_spec
        self.lanes = lanes or LaneSet.whole_machine(runtime.config)
        self.reduce_lanes = reduce_lanes or self.lanes
        self.map_binding = map_binding or BlockBinding()
        self.reduce_binding = reduce_binding or HashBinding()
        self.max_inflight = max_inflight
        self.poll_interval_cycles = poll_interval_cycles
        self.master_lane = self.lanes[0] if master_lane is None else master_lane
        self.payload = payload
        self.name = name or map_cls.__name__

        ensure_registered(runtime)
        runtime.register(map_cls)
        if reduce_cls is not None:
            runtime.register(reduce_cls)
        self.job_id = _register_job(runtime, self)
        # Entry labels resolved once at job construction: kv_emit runs
        # once per intermediate tuple (once per edge in PageRank), and an
        # f-string + registry lookup per emit is pure hot-path waste.
        self._map_entry_label = f"{map_cls.__name__}::__map_entry__"
        self._reduce_entry_label = None
        self._flush_entry_label = None
        self.reduce_entry_label_id = None
        if reduce_cls is not None:
            self._reduce_entry_label = (
                f"{reduce_cls.__name__}::__reduce_entry__"
            )
            self._flush_entry_label = f"{reduce_cls.__name__}::__flush_entry__"
            self.reduce_entry_label_id = runtime.label_id(
                self._reduce_entry_label
            )
        #: batched-dispatch plan cache (``repro.udweave.ir``): lowered
        #: lazily on the job's first emitted tuple; ``_batch_tried``
        #: keeps un-lowerable handlers from re-tracing per emit.
        self._batch_plan = None
        self._batch_tried = False
        #: destination-lane memo for the kv_emit hot path.  Only armed
        #: for the stateless :class:`HashBinding` — a pure function of
        #: the key, so caching is observationally invisible; custom or
        #: data-driven bindings keep calling ``lane_for`` every emit.
        self._lane_memo = (
            {} if type(self.reduce_binding) is HashBinding else None
        )
        #: kv_emit's fixed charge (hash + lane arithmetic + send), summed
        #: once.  Table-2 costs are integers, so one float add is
        #: bit-identical to the two-step charge it replaces.
        _c = runtime.config.costs
        self._emit_cycles = 2 * _c.instruction + _c.send_message

    # -- label helpers -------------------------------------------------

    @property
    def reduce_entry_label(self) -> str:
        assert self._reduce_entry_label is not None
        return self._reduce_entry_label

    @property
    def flush_entry_label(self) -> str:
        assert self._flush_entry_label is not None
        return self._flush_entry_label

    # -- launching -------------------------------------------------------

    def run(
        self, done: str, what: str, max_events: Optional[int] = None
    ) -> Tuple[Tuple[Any, ...], SimStats]:
        """Host-side start that waits: drain until this job's completion
        arrives under ``done``; see :meth:`UpDownRuntime.call`."""
        return self.runtime.call(
            self.master_lane, "KVMSRMaster::start", self.job_id,
            done=done, what=what, max_events=max_events,
        )

    def launch(self, cont_tag: str = "kvmsr_done") -> None:
        """Host-side start that does not wait; completion lands in the
        host mailbox."""
        self.runtime.start(
            self.master_lane,
            "KVMSRMaster::start",
            self.job_id,
            cont=self.runtime.host_evw(cont_tag),
        )

    def launch_from(self, ctx: LaneContext, cont_evw: Optional[int]) -> None:
        """Device-side start: an application thread chains a KVMSR phase."""
        ctx.spawn(
            self.master_lane, "KVMSRMaster::start", self.job_id, cont=cont_evw
        )


def _register_job(runtime: UpDownRuntime, job: KVMSRJob) -> int:
    jobs = runtime.registry("kvmsr_jobs")
    if not jobs:
        # the machine's first job: hook KVMSR's liveness observability
        # into the simulator (quiescence-poll labels are idle for the
        # watchdog; stall dumps gain per-job reduce-credit accounting)
        sim = runtime.sim
        sim.mark_idle_labels(_IDLE_POLL_LABELS)
        sim.add_diagnostic_provider("kvmsr_credits", _credit_diagnostics)
    job_id = len(jobs)
    jobs[job_id] = job
    return job_id


def _lower_job_reduce_entry(job, runtime, operands):
    """Lower + validate ``job``'s reduce entry once; cache the outcome.

    Lowering *executes* ``kv_reduce``, so only classes that declare
    ``intrinsic_only`` get that far: an undeclared handler is never
    traced (``repro.udweave.ir`` is not even imported for it) and keeps
    the interpreter.  Either way the verdict is filed with the simulator
    for :meth:`Simulator.batch_report`.
    """
    job._batch_tried = True
    plan = None
    if job.reduce_cls.intrinsic_only:
        from repro.udweave.ir import lower_reduce_entry

        plan = lower_reduce_entry(runtime, job, operands)
    runtime.sim.note_reduce_entry(job.reduce_entry_label, plan)
    if plan is not None and plan.parkable:
        job._batch_plan = plan
        return plan
    return None


def _emit(ctx: LaneContext, job: KVMSRJob, keys, values: tuple, work) -> None:
    """Charge and issue one intermediate tuple per key: park it, or send it.

    The one emit path behind :meth:`MapTask.kv_emit` /
    :meth:`MapTask.kv_emit_many` and :func:`emit_to_reduce` /
    :func:`emit_to_reduce_many` — the scalar forms are its one-key case.
    Key ``k`` issues ``(job_id, k) + values``; the result is
    bit-identical to the scalar loop ``for k in keys: emit(k);
    ctx.work(work)``.

    What belongs to KVMSR is done here: the binding and lane memo pick
    each key's reduce lane, the park decision and guard test pick each
    tuple's form, and cycles are charged in the scalar order — the emit
    charge (hash + lane arithmetic + send; Table-2 costs are integers,
    so one float add equals the ``work(2)`` + ``spawn()`` pair) before
    the issue, ``work`` after — so every issue time matches the scalar
    loop.  The whole call is then one :meth:`Simulator.issue` run, which
    sequences, prices, counts and places every tuple as it does a
    one-element ``send``.

    Batched dispatch: on a ``batch_dispatch`` machine, a tuple whose
    reduce entry lowered to a parkable plan is issued as a bare payload
    tuple, which the issue site parks on its destination lane instead of
    the heap, to be executed array-at-a-time just before that lane is
    next observed.  The payload holds only the operand slots the plan's
    executor reads (``plan.project(key, values)``), and is the shared
    ``()`` when it reads none; the full ``(job_id, key) + values`` is
    built only for a tuple sent as a :class:`MessageRecord`.  The first
    emitted tuple of a job triggers lowering + validation lazily (it
    supplies the operand arity).  A plan traced through ``sp_once``
    lowered only the already-set arm, so it parks a tuple only if its
    once-key (``plan.guard(key, values)``) is in the destination
    scratchpad *now*; the flag is monotone, so it will still be there
    at delivery.
    """
    if job.reduce_cls is None:
        raise KVMSRError(f"job {job.name!r} has no reduce phase; cannot emit")
    if work < 0:
        raise KVMSRError("cannot charge negative work")
    if not keys:
        return
    if ctx.__class__ is not LaneContext:
        # IR lowering (repro.udweave.ir): refuse — an emitting body is
        # never batch-safe, and tracing past this point would hash a
        # symbolic key.
        ctx.op_kv_emit()
    sim = ctx.sim
    job_id = job.job_id
    plan = guard = project = None
    if sim.config.batch_dispatch:
        plan = job._batch_plan
        if plan is None and not job._batch_tried:
            plan = _lower_job_reduce_entry(
                job, ctx.runtime, (job_id, keys[0]) + values
            )
        if plan is not None:
            guard = plan.guard
            project = plan.project
            lanes = sim._lanes
    binding = job.reduce_binding
    reduce_lanes = job.reduce_lanes
    memo = job._lane_memo
    emit_cycles = job._emit_cycles
    work_cycles = work * ctx.costs.instruction if work else 0
    label = job._reduce_entry_label
    label_id = job.reduce_entry_label_id
    src_nwid = ctx.lane.network_id
    start = ctx.start
    cycles = ctx.cycles
    run = []
    n_declined = 0
    for key in keys:
        if memo is None:
            lane = binding.lane_for(key, reduce_lanes)
        else:
            lane = memo.get(key)
            if lane is None:
                lane = memo[key] = binding.lane_for(key, reduce_lanes)
        cycles += emit_cycles
        if plan is not None and (guard is None or (
            (dest := lanes.get(lane)) is not None
            and guard(key, values) in dest.scratchpad
        )):
            run.append((start + cycles, lane,
                        () if project is None else project(key, values)))
        else:
            if plan is not None:
                n_declined += 1
            run.append((start + cycles, lane, MessageRecord(
                lane, NEW_THREAD, label, (job_id, key) + values, None,
                src_nwid, "msg", label_id,
            )))
        if work_cycles:
            cycles += work_cycles
    ctx.cycles = cycles
    sim.issue(src_nwid, ctx.lane.node, run, plan)
    if n_declined:
        plan.guard_declined += n_declined


def job_of(ctx: LaneContext, job_id: int) -> KVMSRJob:
    """The job descriptor for ``job_id`` on this machine."""
    try:
        return ctx.runtime.registry("kvmsr_jobs")[job_id]
    except KeyError:
        raise KVMSRError(f"unknown KVMSR job id {job_id}") from None


# ---------------------------------------------------------------------------
# User task base classes
# ---------------------------------------------------------------------------


class MapTask(UDThread):
    """Base class for ``kv_map`` workers.

    Subclasses implement ``kv_map(self, ctx, key, *values)`` as a plain
    method (invoked inside the framework's entry event) plus any number of
    additional ``@event`` handlers for split-phase continuations (e.g.
    PageRank's ``returnRead``).  Every activation path must finish with
    either ``ctx.yield_()`` (more events coming) or ``self.kv_map_return
    (ctx)`` (task complete — retires the thread and reports to KVMSR).
    """

    def __init__(self) -> None:
        self._job_id: int = -1
        self._job: Optional[KVMSRJob] = None
        self._done_evw: Optional[int] = None
        self._emitted: int = 0
        self._record: List[Optional[Tuple[Any, ...]]] = []
        self._chunks_left: int = 0

    # -- framework entry -------------------------------------------------

    @event
    def __map_entry__(self, ctx: LaneContext, job_id: int, done_evw: int, key):
        self._job_id = job_id
        self._done_evw = done_evw
        job = self._job = job_of(ctx, job_id)
        inp = job.input
        if isinstance(inp, RangeInput):
            self.kv_map(ctx, key)
        elif isinstance(inp, ListInput):
            actual_key, values = inp.pair(key)
            self.kv_map(ctx, actual_key, *values)
        elif isinstance(inp, ArrayInput):
            nchunks = ctx.send_dram_reads(
                inp.record_addr(key), inp.stride_words, "__map_record__",
                tag=key,
            )
            self._chunks_left = nchunks
            # Chunk responses land tagged with their word offset; a
            # preallocated slot list keeps reassembly O(chunks) with no
            # dict churn or per-record sort.
            self._record = [None] * nchunks
            ctx.yield_()
        else:
            raise KVMSRError(f"unsupported input type {type(inp).__name__}")

    @event
    def __map_record__(self, ctx: LaneContext, key, i: int, *words):
        self._record[i // MAX_DRAM_READ_WORDS] = words
        self._chunks_left -= 1
        if self._chunks_left == 0:
            flat: List[Any] = []
            for chunk in self._record:
                flat.extend(chunk)
            self._record = []
            self.kv_map(ctx, key, *flat)
        else:
            ctx.yield_()

    # -- user API ---------------------------------------------------------

    def job(self, ctx: LaneContext) -> KVMSRJob:
        """This task's job descriptor (cached across the task's events)."""
        j = self._job
        if j is None:
            j = self._job = job_of(ctx, self._job_id)
        return j

    def kv_map(self, ctx: LaneContext, key, *values) -> None:
        raise NotImplementedError(
            f"{type(self).__name__} must implement kv_map"
        )

    def kv_emit(self, ctx: LaneContext, key, *values) -> None:
        """Emit an intermediate ``<key, values>`` tuple (``kv_map_emit``).

        The tuple becomes a ``kv_reduce`` task on the lane chosen by the
        job's reduce binding — an asynchronous send with no response, so
        "each generates additional parallelism" (§4.1.2).
        """
        job = self._job
        if job is None:
            job = self._job = job_of(ctx, self._job_id)
        _emit(ctx, job, (key,), values, 0)
        self._emitted += 1

    def kv_emit_many(
        self, ctx: LaneContext, keys: Sequence, *values, work=0
    ) -> None:
        """Emit ``<k, values>`` for every ``k`` in ``keys``, charging
        ``work`` instructions after each — exactly the loop ``for k in
        keys: self.kv_emit(ctx, k, *values); ctx.work(work)``, issued
        in one call (one per neighbor chunk in the graph apps)."""
        job = self._job
        if job is None:
            job = self._job = job_of(ctx, self._job_id)
        _emit(ctx, job, keys, values, work)
        self._emitted += len(keys)

    def add_emitted(self, n: int) -> None:
        """Credit emits performed on this task's behalf by helper threads.

        Applications that build custom local parallelism inside a map task
        (BFS's per-accelerator master-worker, §4.2.2) have the workers emit
        with :func:`emit_to_reduce` and report their counts back; the map
        task credits them here before ``kv_map_return`` so termination
        detection stays exact.
        """
        self._emitted += n

    def kv_map_return(self, ctx: LaneContext) -> None:
        """Report completion to KVMSR and retire this map thread (§2.2)."""
        if self._done_evw is None:
            raise KVMSRError("kv_map_return outside a KVMSR activation")
        ctx.send_event(self._done_evw, self._emitted)
        if not (ctx.yielded or ctx.terminated):
            ctx.yield_terminate()


class ReduceTask(UDThread):
    """Base class for ``kv_reduce`` workers.

    Subclasses implement ``kv_reduce(self, ctx, key, *values)``; each
    completion path must end with ``self.kv_reduce_return(ctx)``.  An
    optional ``kv_flush(self, ctx)`` runs once per reduce lane after
    quiescence (used to drain combining caches to DRAM); it must end with
    ``self.kv_flush_return(ctx)``.
    """

    #: Declare ``True`` when ``kv_reduce`` touches the machine only
    #: through ``ctx`` intrinsics and KVMSR composites (``kv_reduce_return``,
    #: combining-cache ``add``) and keeps no host-side Python state — no
    #: collector lists, counters on the payload, prints, or anything else
    #: the body does in plain Python for its effect.  Batched dispatch
    #: lowers only declared classes: lowering *runs the body once with
    #: placeholder operands* and the compiled plan replays just the
    #: intrinsics that run saw, so declaring this on a handler that
    #: appends to a host-side collector is a misuse — the collector gets
    #: one placeholder entry from the trace and silently loses every
    #: batched record.  Undeclared handlers are never traced and always
    #: run on the interpreter.
    intrinsic_only = False

    def __init__(self) -> None:
        self._job_id: int = -1
        self._job: Optional[KVMSRJob] = None
        self._flush_ack: Optional[int] = None

    @event
    def __reduce_entry__(self, ctx: LaneContext, job_id: int, key, *values):
        self._job_id = job_id
        self.kv_reduce(ctx, key, *values)

    @event
    def __flush_entry__(self, ctx: LaneContext, job_id: int, ack_evw: int):
        self._job_id = job_id
        self._flush_ack = ack_evw
        self.kv_flush(ctx)

    # -- user API ----------------------------------------------------------

    def job(self, ctx: LaneContext) -> KVMSRJob:
        """This task's job descriptor (cached across the task's events)."""
        j = self._job
        if j is None:
            j = self._job = job_of(ctx, self._job_id)
        return j

    def kv_reduce(self, ctx: LaneContext, key, *values) -> None:
        raise NotImplementedError(
            f"{type(self).__name__} must implement kv_reduce"
        )

    def kv_reduce_return(self, ctx: LaneContext) -> None:
        """Mark one reduce tuple fully processed; retires the thread.

        Open-coded scratchpad bump (read + write, charged separately like
        ``sp_read``/``sp_write`` would): one of these runs per emitted
        tuple, machine-wide.
        """
        if ctx.__class__ is not LaneContext:
            # IR lowering: a proven composite intrinsic (KVR_RETURN).
            ctx.op_kvr_return(self._job_id)
            return
        cost = ctx.costs.scratchpad_access
        ctx.cycles += cost
        ctx.cycles += cost
        sp = ctx.lane.scratchpad
        counter = ("kvr", self._job_id)
        sp[counter] = sp.get(counter, 0) + 1
        if not (ctx.yielded or ctx.terminated):
            ctx.yield_terminate()

    def kv_flush(self, ctx: LaneContext) -> None:
        self.kv_flush_return(ctx)

    def kv_flush_return(self, ctx: LaneContext, value=0) -> None:
        """End the flush; ``value`` is summed across lanes and delivered in
        the completion message (a cheap global reduction: BFS reports the
        number of vertices appended to the next frontier, TC the triangle
        total)."""
        if self._flush_ack is None:
            raise KVMSRError("kv_flush_return outside a flush activation")
        # Reset the epoch counter so the job object can be relaunched
        # (PageRank iterations, BFS rounds).
        ctx.sp_write(("kvr", self._job_id), 0)
        ctx.send_event(self._flush_ack, value)
        if not (ctx.yielded or ctx.terminated):
            ctx.yield_terminate()


# ---------------------------------------------------------------------------
# Framework threads
# ---------------------------------------------------------------------------


class LaneProbe(UDThread):
    """Reads one lane's reduce counter and replies (quiescence poll)."""

    @event
    def probe(self, ctx: LaneContext, job_id: int, reply_evw: int):
        count = ctx.sp_read(("kvr", job_id), 0)
        ctx.send_event(reply_evw, count)
        ctx.yield_terminate()


class MapperLane(UDThread):
    """Per-lane map dispatcher: throttled task issue over a key block."""

    def __init__(self) -> None:
        self.job_id = -1
        self._job: Optional[KVMSRJob] = None
        self.coord_evw: Optional[int] = None
        self.master_req_evw: Optional[int] = None
        self.next_key = 0
        self.end_key = 0
        self.inflight = 0
        self.tasks = 0
        self.emitted = 0

    @event
    def start(
        self,
        ctx: LaneContext,
        job_id: int,
        coord_evw: int,
        master_req_evw,
        lo: int,
        hi: int,
    ):
        self.job_id = job_id
        self._job = job_of(ctx, job_id)
        self.coord_evw = coord_evw
        self.master_req_evw = master_req_evw
        self.next_key, self.end_key = lo, hi
        self._pump(ctx)

    @event
    def task_done(self, ctx: LaneContext, n_emitted: int):
        self.inflight -= 1
        self.tasks += 1
        self.emitted += n_emitted
        self._pump(ctx)

    @event
    def grant(self, ctx: LaneContext, lo: int, hi: int):
        """PBMW work grant from the master (empty grant = pool dry)."""
        if lo == hi:
            self.master_req_evw = None  # stop asking
            self._finish_or_wait(ctx)
        else:
            self.next_key, self.end_key = lo, hi
            self._pump(ctx)

    def _pump(self, ctx: LaneContext) -> None:
        job = self._job
        if job is None:
            job = self._job = job_of(ctx, self.job_id)
        next_key = self.next_key
        end_key = self.end_key
        inflight = self.inflight
        max_inflight = job.max_inflight
        if inflight < max_inflight and next_key < end_key:
            # every map task in the whole run is issued here: hoist the
            # loop invariants (bound methods, lane id, entry label)
            spawn = ctx.spawn
            work = ctx.work
            nwid = ctx.lane.network_id
            label = job._map_entry_label
            job_id = self.job_id
            done_evw = ctx.self_evw("task_done")
            while inflight < max_inflight and next_key < end_key:
                spawn(nwid, label, job_id, done_evw, next_key)
                next_key += 1
                inflight += 1
                work(2)  # loop + bookkeeping
            self.next_key = next_key
            self.inflight = inflight
        if self.inflight == 0 and self.next_key >= self.end_key:
            if self.master_req_evw is not None:
                ctx.send_event(
                    self.master_req_evw, ctx.self_evw("grant")
                )
                ctx.yield_()
            else:
                self._finish_or_wait(ctx)
        else:
            ctx.yield_()

    def _finish_or_wait(self, ctx: LaneContext) -> None:
        ctx.send_event(self.coord_evw, self.tasks, self.emitted)
        ctx.yield_terminate()


class NodeCoordinator(UDThread):
    """Per-node control lane: fan-out + aggregation for one phase.

    A fresh coordinator thread is spawned per node per phase (map start,
    count poll, flush) — thread creation is free on UpDown (Table 2), so
    this is how real UDWeave programs structure control too.
    """

    def __init__(self) -> None:
        self.master_evw: Optional[int] = None
        self.pending = 0
        self.acc_a = 0
        self.acc_b = 0

    # -- map phase ---------------------------------------------------------

    @event
    def coord_start(
        self,
        ctx: LaneContext,
        job_id: int,
        master_evw: int,
        master_req_evw,
        assignments,
    ):
        self.master_evw = master_evw
        self.pending = len(assignments)
        reply = ctx.self_evw("mapper_done")
        for lane, lo, hi in assignments:
            ctx.spawn(
                lane, "MapperLane::start", job_id, reply, master_req_evw, lo, hi
            )
            ctx.work(2)
        ctx.yield_()

    @event
    def mapper_done(self, ctx: LaneContext, n_tasks: int, n_emitted: int):
        self.acc_a += n_tasks
        self.acc_b += n_emitted
        self.pending -= 1
        if self.pending == 0:
            ctx.send_event(self.master_evw, self.acc_a, self.acc_b)
            ctx.yield_terminate()
        else:
            ctx.yield_()

    # -- quiescence poll ----------------------------------------------------

    @event
    def count_req(self, ctx: LaneContext, job_id: int, master_evw: int, lanes):
        self.master_evw = master_evw
        self.pending = len(lanes)
        self.acc_a = 0
        reply = ctx.self_evw("count_reply")
        for lane in lanes:
            ctx.spawn(lane, "LaneProbe::probe", job_id, reply)
            ctx.work(1)
        ctx.yield_()

    @event
    def count_reply(self, ctx: LaneContext, count: int):
        self.acc_a += count
        self.pending -= 1
        if self.pending == 0:
            ctx.send_event(self.master_evw, self.acc_a)
            ctx.yield_terminate()
        else:
            ctx.yield_()

    # -- flush phase ---------------------------------------------------------

    @event
    def flush_req(
        self,
        ctx: LaneContext,
        job_id: int,
        master_evw: int,
        flush_label: str,
        lanes,
    ):
        self.master_evw = master_evw
        self.pending = len(lanes)
        ack = ctx.self_evw("flush_ack")
        for lane in lanes:
            ctx.spawn(lane, flush_label, job_id, ack)
            ctx.work(1)
        ctx.yield_()

    @event
    def flush_ack(self, ctx: LaneContext, value=0):
        self.acc_b += value
        self.pending -= 1
        if self.pending == 0:
            ctx.send_event(self.master_evw, self.acc_b)
            ctx.yield_terminate()
        else:
            ctx.yield_()


class KVMSRMaster(UDThread):
    """Drives one KVMSR invocation end to end."""

    def __init__(self) -> None:
        self.job_id = -1
        self.cont: Optional[int] = None
        self.phase = "idle"
        self.nodes_pending = 0
        self.total_tasks = 0
        self.total_emitted = 0
        self.reduced_seen = 0
        self.pool_next = 0
        self.pool_end = 0
        self.poll_rounds = 0
        self.flush_value = 0

    # -- start ---------------------------------------------------------------

    @event
    def start(self, ctx: LaneContext, job_id: int):
        self.job_id = job_id
        self.cont = ctx.ccont
        job = job_of(ctx, job_id)
        ctx.ud_print(f"UDKVMSR started for {job.name}")
        # every recorder tier takes phase spans; like ``ud_print`` they are
        # host-side observations (a handful per job), never lane cycles
        rec = ctx.runtime.recorder
        if rec is not None:
            rec.phase_begin(job.name, "job", ctx.time)
        n_keys = job.input.n_keys
        if n_keys == 0:
            self._complete(ctx)
            return
        assignments = job.map_binding.partition(n_keys, job.lanes)
        self.pool_next, self.pool_end = job.map_binding.master_pool(
            n_keys, job.lanes
        )
        master_req_evw = (
            ctx.self_evw("request_work")
            if self.pool_next < self.pool_end
            else None
        )
        groups = _group_assignments(ctx, assignments)
        self.phase = "map"
        if rec is not None:
            # The map span covers the start broadcast, the map tasks, and
            # the shuffle they emit (kv_emit sends happen *during* map).
            rec.phase_begin(job.name, "map", ctx.time)
        self.nodes_pending = len(groups)
        reply = ctx.self_evw("node_done")
        for coord_lane, asgs in groups:
            ctx.spawn(
                coord_lane,
                "NodeCoordinator::coord_start",
                job_id,
                reply,
                master_req_evw,
                asgs,
            )
            ctx.work(2)
        ctx.work(len(assignments))  # partition arithmetic
        ctx.yield_()

    # -- PBMW work requests ----------------------------------------------------

    @event
    def request_work(self, ctx: LaneContext, reply_evw: int):
        job = job_of(ctx, self.job_id)
        chunk = getattr(job.map_binding, "chunk_size", 32)
        lo = self.pool_next
        hi = min(lo + chunk, self.pool_end)
        self.pool_next = hi
        ctx.send_event(reply_evw, lo, hi)
        ctx.yield_()

    # -- map completion ---------------------------------------------------------

    @event
    def node_done(self, ctx: LaneContext, n_tasks: int, n_emitted: int):
        self.total_tasks += n_tasks
        self.total_emitted += n_emitted
        self.nodes_pending -= 1
        if self.nodes_pending > 0:
            ctx.yield_()
            return
        job = job_of(ctx, self.job_id)
        rec = ctx.runtime.recorder
        if rec is not None:
            rec.phase_end(job.name, "map", ctx.time)
        if job.reduce_cls is None or self.total_emitted == 0:
            self._complete(ctx)
        else:
            self.phase = "reduce"
            if rec is not None:
                # In-flight reduce drain: from the last map completion to
                # confirmed quiescence (the emit/reduce counts matching).
                rec.phase_begin(job.name, "reduce", ctx.time)
            self._poll(ctx)

    # -- quiescence -----------------------------------------------------------

    def _poll(self, ctx: LaneContext) -> None:
        job = job_of(ctx, self.job_id)
        rec = ctx.runtime.recorder
        if rec is not None:
            rec.mark("quiescence_poll", ctx.time, job.name)
        groups = job.reduce_lanes.by_node(ctx.config)
        self.nodes_pending = len(groups)
        self.reduced_seen = 0
        self.poll_rounds += 1
        reply = ctx.self_evw("count_done")
        for _node, lanes in groups:
            ctx.spawn(
                lanes[0],
                "NodeCoordinator::count_req",
                self.job_id,
                reply,
                lanes,
            )
            ctx.work(1)
        ctx.yield_()

    @event
    def count_done(self, ctx: LaneContext, count: int):
        self.reduced_seen += count
        self.nodes_pending -= 1
        if self.nodes_pending > 0:
            ctx.yield_()
            return
        if self.reduced_seen >= self.total_emitted:
            self._flush(ctx)
        else:
            job = job_of(ctx, self.job_id)
            ctx.send_event(
                ctx.self_evw("poll_again"),
                delay=job.poll_interval_cycles,
            )
            ctx.yield_()

    @event
    def poll_again(self, ctx: LaneContext):
        self._poll(ctx)

    # -- flush ------------------------------------------------------------------

    def _flush(self, ctx: LaneContext) -> None:
        job = job_of(ctx, self.job_id)
        rec = ctx.runtime.recorder
        if rec is not None:
            rec.phase_end(job.name, "reduce", ctx.time)
            rec.phase_begin(job.name, "flush", ctx.time)
        groups = job.reduce_lanes.by_node(ctx.config)
        self.phase = "flush"
        self.nodes_pending = len(groups)
        reply = ctx.self_evw("flush_done")
        for _node, lanes in groups:
            ctx.spawn(
                lanes[0],
                "NodeCoordinator::flush_req",
                self.job_id,
                reply,
                job.flush_entry_label,
                lanes,
            )
            ctx.work(1)
        ctx.yield_()

    @event
    def flush_done(self, ctx: LaneContext, value=0):
        self.flush_value += value
        self.nodes_pending -= 1
        if self.nodes_pending == 0:
            self._complete(ctx)
        else:
            ctx.yield_()

    # -- completion ----------------------------------------------------------------

    def _complete(self, ctx: LaneContext) -> None:
        job = job_of(ctx, self.job_id)
        rec = ctx.runtime.recorder
        if rec is not None:
            # phase_end is a no-op for spans that never opened, so this
            # closes whichever phases this job actually reached.
            t = ctx.time
            rec.phase_end(job.name, "flush", t)
            rec.phase_end(job.name, "map", t)
            rec.phase_end(job.name, "job", t)
        ctx.ud_print(f"UDKVMSR finished for {job.name}")
        ctx.send_event(
            self.cont,
            self.total_tasks,
            self.total_emitted,
            self.poll_rounds,
            self.flush_value,
        )
        ctx.yield_terminate()


def emit_to_reduce(ctx: LaneContext, job_id: int, key, *values) -> None:
    """Emit an intermediate tuple from *any* thread (not just a MapTask).

    Used by application worker threads nested inside a map task; the
    enclosing map task must credit these emits via
    :meth:`MapTask.add_emitted` before returning.
    """
    _emit(ctx, job_of(ctx, job_id), (key,), values, 0)


def emit_to_reduce_many(
    ctx: LaneContext, job_id: int, keys: Sequence, *values, work=0
) -> None:
    """:func:`emit_to_reduce` for every key in ``keys``, in one call
    (see :meth:`MapTask.kv_emit_many`); the enclosing map task credits
    ``len(keys)`` emits."""
    _emit(ctx, job_of(ctx, job_id), keys, values, work)


def _group_assignments(ctx: LaneContext, assignments) -> List[Tuple[int, list]]:
    """Group map assignments by node; coordinator sits on each group's
    first assigned lane."""
    cfg = ctx.config
    groups: Dict[int, list] = {}
    for asg in assignments:
        groups.setdefault(cfg.node_of(asg[0]), []).append(asg)
    return [(asgs[0][0], asgs) for _node, asgs in sorted(groups.items())]


_FRAMEWORK_CLASSES = (KVMSRMaster, NodeCoordinator, MapperLane, LaneProbe)


#: quiescence-poll machinery: a machine executing only these is waiting,
#: not progressing, so the liveness watchdog must not count them.
_IDLE_POLL_LABELS = frozenset({
    "KVMSRMaster::poll_again",
    "KVMSRMaster::count_done",
    "NodeCoordinator::count_req",
    "NodeCoordinator::count_reply",
    "LaneProbe::probe",
})


def _credit_diagnostics(sim) -> Dict[str, Any]:
    """Per-job credit accounting for a watchdog stall dump.

    Shows exactly what a lost reduce tuple looks like: ``outstanding``
    credits that never arrive while the master polls forever.
    """
    credits: Dict[int, int] = {}
    for lane in sim._lanes.values():
        for key, value in lane.scratchpad.items():
            if isinstance(key, tuple) and len(key) == 2 and key[0] == "kvr":
                credits[key[1]] = credits.get(key[1], 0) + value
    masters = []
    for lane in sim._lanes.values():
        for thread in lane.threads.values():
            if isinstance(thread, KVMSRMaster):
                seen = credits.get(thread.job_id, 0)
                masters.append({
                    "job_id": thread.job_id,
                    "phase": thread.phase,
                    "total_emitted": thread.total_emitted,
                    "reduce_credits_banked": seen,
                    "outstanding": thread.total_emitted - seen,
                    "poll_rounds": thread.poll_rounds,
                })
    return {
        "reduce_credits_by_job": credits,
        "live_masters": masters,
    }


def ensure_registered(runtime: UpDownRuntime) -> None:
    """Register the KVMSR framework threads with a runtime's program."""
    for cls in _FRAMEWORK_CLASSES:
        runtime.register(cls)
