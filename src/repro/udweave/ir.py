"""Intrinsic event-IR: reduce-entry lowering and batched execution.

The simulator's per-event cost is dominated by the Python machinery
*around* a handler, not the handler body: every KVMSR reduce tuple pays a
``MessageRecord`` allocation, a heap push, a heap pop, a drain-loop
iteration, a dispatcher call, a thread allocate/deallocate, and a pooled
``LaneContext`` rearm — for a body that is often two scratchpad updates.
Following the intrinsic-function idiom (handlers decompose into a small
fixed op vocabulary) this module lowers a declared reduce entry into a
linear sequence of intrinsic ops and compiles a specialized executor
that applies N same-label records to a lane in one pass.

Op vocabulary (golden dumps in ``tests/udweave/test_event_ir.py``)::

    CHARGE n            fixed lane cycles (Table 2 sums; exact integers)
    ONCE_HIT key        write-once flag test, *already-set arm only*
    CC_ADD cache        combining-cache fetch&add (miss/hit arms inside)
    KVR_RETURN job      reduce-tuple retirement (credit bump + terminate)

The trace records only what a batch executor runs.  Lowering is
*trace-based*: the handler runs once against a :class:`TraceContext`
whose operands are opaque :class:`Symbol` values.  The context offers
``work``, ``sp_once`` and the hooks of the two KVMSR composites; every
other intrinsic, any computation on a symbol, and a body that does not
retire its tuple through ``kv_reduce_return`` raise
:class:`LoweringUnsupported`, and the handler keeps the interpreter with
the refusal as the plan's ``reason``.

Lowering *executes the handler body*, and the compiled plan replays only
the intrinsics the trace saw: a host-side Python effect in the body (a
collector ``dict.setdefault(...).append(...)``) is invisible to the
trace, would run once with ``Symbol`` arguments, and then never again on
the batch path.  No trace can discover such an effect by itself, so the
emit path lowers only reduce classes that *declare*
``ReduceTask.intrinsic_only = True``; everything else is never traced
and keeps the interpreter.  :func:`lower_reduce_entry` itself runs
whatever body it is pointed at.

Batch safety
------------
A trace that completes is batch-safe by construction: its ops are pure
cycle charges, the two proven KVMSR composites (``CC_ADD``,
``KVR_RETURN``) and the write-once guard (``ONCE_HIT``), and it ends in
exactly one ``KVR_RETURN``, because that hook refuses a second
retirement.  Those bodies touch nothing but their own lane's scratchpad
and clock: no sends, no DRAM, no spawns, no raw reads whose value could
steer control flow.  That is what makes *deferred* execution legal:
parked records cannot schedule anything, so replaying them in exact
``(time, seq)`` key order just before the next observation of the lane
reproduces the interpreted schedule bit-for-bit (see
``machine/simulator.py`` and DESIGN.md "Event IR & batched dispatch").

The plan is the only thing that decides parking.  The machine acts at
dispatch on lane stalls, a finite fail-stop tick, an attached reliable
transport (dedup and acks) and the watchdog's idle labels, and the
batch executors skip dispatch; so :func:`lower_reduce_entry` refuses
before tracing on any of them, and the emit path parks nothing for that
label.

Write-once guard
----------------
``ctx.sp_once(key)`` tests-and-sets a scratchpad flag that is never
overwritten or deleted afterwards.  The trace answers ``True`` and so
lowers the *already-set* arm only; the plan carries a compiled
``guard(key, values) -> once-key`` (over the emitted key and value
tuple, so the emit side tests it without building the record's operand
tuple) and the emit side parks a record only when that key is already
in the destination lane's scratchpad.  The flag is
monotone and parked records never create one, so "set at emit" implies
"set at delivery": the interpreter would take exactly the traced arm.
The miss arm (whatever it does — DRAM traffic in BFS) is never lowered;
those records ride the heap as before.

Parked payload
--------------
A parked record keeps only the operand slots its executor reads:
``HandlerPlan.reads`` lists them (the operand slots of the ``CC_ADD``
keys and deltas, ascending; the leading ``job_id`` stays concrete in
the trace, so it is never one), and the compiled
``project(key, values)`` builds that projection at emit.  A plan that
reads nothing parks the shared ``()``, compiles no projection and keeps
no payload column (its executor is handed ``payloads=None``) — the BFS
hit arm and the count reduces.  The executor indexes a payload by
position in ``reads``, never by operand slot.

Every plan is additionally **validated once per program** against the
interpreted semantics before its first record parks: the real handler
and the generated single-record executor run side by side on scratch
lanes (miss arm, then hit arm) and must agree on the charged cycles and
every scratchpad mutation.  The executor runs on payloads built by the
plan's own ``project``, so a projection that leaves out a slot the
executor reads fails here too.  A divergence disables the plan — the
handler stays on the interpreter — rather than risking a wrong
simulation.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

from repro.machine.events import NEW_THREAD, MessageRecord
from repro.machine.lane import Lane

from .context import LaneContext

__all__ = [
    "LoweringUnsupported",
    "Symbol",
    "TraceContext",
    "HandlerPlan",
    "lower_reduce_entry",
    "render_plan",
]


class LoweringUnsupported(Exception):
    """The handler body cannot be represented as a linear op sequence."""


class Symbol:
    """An opaque operand placeholder flowing through a handler trace.

    Any attempt to *compute* with the symbol — arithmetic, comparison,
    truth testing, iteration, attribute access — aborts the trace: the
    lowering only accepts handlers that move operands through known
    intrinsics unexamined.
    """

    __slots__ = ("index", "name")

    def __init__(self, index: int, name: str) -> None:
        self.index = index
        self.name = name

    def __repr__(self) -> str:
        return f"${self.name}"

    def _refuse(self, *_a, **_k):
        raise LoweringUnsupported(
            f"symbolic operand {self.name!r} used in unsupported computation"
        )

    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _refuse
    __truediv__ = __rtruediv__ = __floordiv__ = __mod__ = _refuse
    __lt__ = __le__ = __gt__ = __ge__ = _refuse
    __bool__ = __len__ = __iter__ = __getitem__ = __index__ = _refuse
    __and__ = __or__ = __xor__ = __lshift__ = __rshift__ = __neg__ = _refuse
    __hash__ = object.__hash__

    def __eq__(self, other):  # noqa: D105 - trace abort, not equality
        self._refuse()

    def __ne__(self, other):
        self._refuse()


def _src(value: Any) -> Tuple[str, Any]:
    """Where an intrinsic argument comes from: an operand slot or a const."""
    if isinstance(value, Symbol):
        return ("operand", value.index)
    return ("const", value)


class TraceContext:
    """A ``LaneContext`` stand-in that records what a batch executor runs.

    It offers ``work`` and ``sp_once``, plus the hooks the composite
    intrinsics call instead of executing when handed a trace: the
    combining cache's ``add`` (:meth:`op_cc_add`),
    ``ReduceTask.kv_reduce_return`` (:meth:`op_kvr_return`) and the emit
    path (:meth:`op_kv_emit`, a refusal; see ``kvmsr/combining.py`` /
    ``engine.py``).  ``runtime`` stays readable because ``job_of``
    resolves a job through it.  Every other name — each other
    ``LaneContext`` intrinsic, property and field — raises
    :class:`LoweringUnsupported` naming itself, so an intrinsic added to
    ``LaneContext`` later is refused until a batch executor can run it.
    """

    def __init__(self, runtime) -> None:
        self.runtime = runtime
        self._instruction = runtime.config.costs.instruction
        self._retired = False
        self.ops: List[Tuple[Any, ...]] = []

    def __getattr__(self, name: str):
        raise LoweringUnsupported(f"untraceable context intrinsic {name!r}")

    # -- composite-intrinsic hooks -------------------------------------

    def op_cc_add(self, cache, key, delta) -> None:
        self.ops.append(("CC_ADD", cache.name, _src(key), _src(delta)))

    def op_kvr_return(self, job_id: int) -> None:
        if self._retired:
            raise LoweringUnsupported(
                "kv_reduce_return after thread already ended"
            )
        self.ops.append(("KVR_RETURN", job_id))
        self._retired = True

    def op_kv_emit(self) -> None:
        raise LoweringUnsupported("kv_emit inside handler body")

    # -- intrinsics ----------------------------------------------------

    def work(self, instructions) -> None:
        cycles = instructions * self._instruction
        ops = self.ops
        if ops and ops[-1][0] == "CHARGE":
            ops[-1] = ("CHARGE", ops[-1][1] + cycles)
        else:
            ops.append(("CHARGE", cycles))

    def sp_once(self, key) -> bool:
        """Trace the *already-set* arm of a write-once flag test.

        The one access the hit arm pays is part of the op (no separate
        ``CHARGE``).  The guard is evaluated at emit time against state
        the body has not touched yet, so it must come first: at most one
        per body, before any op other than a pure charge.
        """
        names = [op[0] for op in self.ops]
        if "ONCE_HIT" in names:
            raise LoweringUnsupported("more than one sp_once in one body")
        if any(name != "CHARGE" for name in names):
            raise LoweringUnsupported("sp_once after a state-changing op")
        if not isinstance(key, tuple):
            raise LoweringUnsupported(
                "sp_once key must be a tuple of constants and operands"
            )
        self.ops.append(("ONCE_HIT", tuple(_src(part) for part in key)))
        return True


class HandlerPlan:
    """One reduce entry's lowered form plus (when parkable) its executor.

    ``parkable`` plans expose ``batch_fn(lane, times, payloads, lo,
    hi)``: apply records ``lo:hi`` of a key-ordered group — their
    delivery ``times`` and, when the plan reads operands, their
    ``payloads`` (``None`` otherwise) — to ``lane``, charging exactly
    what the interpreter would have, and return the lane's new
    ``busy_until`` (the max completion tick of the batch).
    Non-parkable plans exist for inspection (golden dumps) and carry
    ``reason``.

    ``reads`` is the ascending tuple of operand slots the executor reads
    (module docstring, "Parked payload"); a record's ``payload`` holds
    exactly those slots, in that order, built by ``project(key, values)``
    — ``None`` when ``reads`` is empty, the payload is ``()`` and no
    payload column is kept.

    A plan traced through ``sp_once`` also carries ``guard(key, values)
    -> once-key``: a record may park only if that key is already in its
    destination lane's scratchpad (module docstring, "Write-once
    guard").  ``parked`` / ``guard_declined`` count the emit side's
    decisions for :meth:`Simulator.batch_report`.
    """

    __slots__ = (
        "label",
        "label_id",
        "ops",
        "reason",
        "batch_fn",
        "meta",
        "reads",
        "project",
        "guard",
        "parked",
        "guard_declined",
    )

    def __init__(
        self,
        label: str,
        label_id: int,
        ops: List[Tuple[Any, ...]],
        reason: str,
        meta: str,
    ) -> None:
        self.label = label
        self.label_id = label_id
        self.ops = ops
        self.reason = reason
        self.batch_fn = None
        self.meta = meta
        self.reads = ()
        self.project = None
        self.guard = None
        self.parked = 0
        self.guard_declined = 0

    @property
    def parkable(self) -> bool:
        """A plan parks exactly when nothing refused it."""
        return not self.reason

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "parkable" if self.parkable else f"fallback: {self.reason}"
        return f"HandlerPlan({self.label!r}, {kind}, {len(self.ops)} ops)"


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


def lower_reduce_entry(runtime, job, operands: Sequence[Any]) -> HandlerPlan:
    """Lower a KVMSR job's ``__reduce_entry__`` label; never raises.

    Called lazily by ``MapTask.kv_emit`` on the first emitted tuple of a
    job (the first record supplies the operand arity).  The returned
    plan is parkable only if the machine acts on nothing at this label's
    dispatch, the trace completed, AND the generated executor agreed
    with the interpreter on a two-record (miss arm, hit arm) validation
    run; otherwise it carries the refusal ``reason`` and the ops traced
    so far.

    **Executes the handler body** (once, with :class:`Symbol` operands
    in every slot but the leading ``job_id``, which stays concrete so
    ``job_of`` resolves at trace time): point it only at bodies whose
    every effect goes through ``ctx`` — the emit path does so by
    requiring ``ReduceTask.intrinsic_only``.
    """
    label = job.reduce_entry_label
    label_id = runtime.label_id(label)
    meta = f"binding={job.reduce_binding!r}"
    sim = runtime.sim
    if label in sim._wd_idle_labels:
        # the watchdog counts every batched record as progress
        reason = "idle-marked for the watchdog"
    elif sim._fault_stall is not None:
        reason = "lane stalls act at dispatch, which the batch executors skip"
    elif sim._fault_dead is not None:
        reason = "fail-stop acts at dispatch, which the batch executors skip"
    elif sim._transport is not None:
        reason = "reliable transport: dedup and acks run at dispatch"
    else:
        reason = ""
    if reason:
        return HandlerPlan(label, label_id, [], reason, meta)
    cls, func = runtime._handler_table[label_id]
    tctx = TraceContext(runtime)
    syms = (operands[0],) + tuple(
        Symbol(i, f"op{i}") for i in range(1, len(operands))
    )
    try:
        func(cls(), tctx, *syms)
        if not tctx._retired:
            raise LoweringUnsupported(
                "handler returned without retiring its tuple"
            )
    except LoweringUnsupported as exc:
        reason = str(exc)
    except Exception as exc:  # symbolic operands break arbitrary Python
        reason = f"trace aborted: {type(exc).__name__}: {exc}"
    plan = HandlerPlan(label, label_id, tctx.ops, reason, meta)
    if reason:
        return plan
    costs = runtime.config.costs
    plan.batch_fn = _compile_batch_fn(plan, costs)
    plan.project, plan.guard = _compile_emit(plan)
    if not _validate(runtime, plan, tuple(operands)):
        plan.reason = "validation against interpreted semantics failed"
        plan.batch_fn = plan.project = plan.guard = None
    elif (rec := runtime.recorder) is not None and rec.record_lane_spans:
        # validated span-free: ``_validate`` must not write spans
        plan.batch_fn = _compile_batch_fn(plan, costs, rec.lane_span)
    return plan


# ---------------------------------------------------------------------------
# Batch executor codegen
# ---------------------------------------------------------------------------


def _compile_batch_fn(plan: HandlerPlan, costs, lane_span=None):
    """Compile a specialized ``batch_fn`` for a traced op sequence.

    It also files ``plan.reads``, the operand slots the executor reads
    (the ``CC_ADD`` keys and deltas that come from an operand,
    ascending): a record's payload is its projection onto ``reads``, so
    an operand slot is read at its position there.

    ``lane_span`` (the ``record="full"`` recorder's hook) adds one span
    per record, as the interpreter records one per event.

    The generated loop replays records in parked order with every
    per-record Table-2 charge and float addition applied in exactly the
    interpreted sequence.  Per-record cycle constants are exact integers
    in float64 (Table 2 costs are integers), so folding the batch's
    total into ``busy_cycles`` with one addition is bit-identical to the
    interpreter's per-event accumulation.  The reduce-credit counter is
    an int, so its fold (``+= n``) is exact too; the combining-cache
    *values* are floats and stay strictly per-record, in order.

    The executor walks the group's time (and payload) columns by index,
    one record at a time: the per-key float accumulation order is part
    of the bit-exactness contract, which rules out vectorized
    reductions (``np.add.at`` ordering across repeated indices is not a
    guarantee we can rest fingerprints on), and a plan that reads no
    operand is handed no payload column at all.
    """
    sp_cost = float(costs.scratchpad_access)
    instr = float(costs.instruction)
    base = float(costs.event_dispatch) + float(costs.thread_deallocate)
    cc_ops = []
    reads = set()
    kvr_job = None
    for op in plan.ops:
        kind = op[0]
        if kind == "CHARGE":
            base += op[1]
        elif kind == "CC_ADD":
            cc_ops.append(op)
            for src in op[2:]:
                if src[0] == "operand":
                    reads.add(src[1])
        elif kind == "KVR_RETURN":
            base += 2 * sp_cost
            kvr_job = op[1]
        elif kind == "ONCE_HIT":
            # the already-set arm: one scratchpad read, no state change
            # (the emit-side guard proved the flag is there)
            base += sp_cost
    ns = {
        "KVR_KEY": ("kvr", kvr_job),
        "BASE_C": base,
        "MISS_EXTRA": 4 * sp_cost + 2 * instr,
        "HIT_EXTRA": 2 * sp_cost + 1 * instr,
    }
    body = [
        "def batch_fn(ln, times, payloads, lo, hi):",
        "    sp = ln.scratchpad",
        "    sp_get = sp.get",
        "    busy = ln.busy_until",
        "    total = 0.0",
        "    n = hi - lo",
        "    for i in range(lo, hi):",
        "        t = times[i]",
    ]
    plan.reads = reads = tuple(sorted(reads))
    if reads:
        body.append("        ops_ = payloads[i]")
    body.append("        c = BASE_C")
    for k, (_kind, name, key_src, delta_src) in enumerate(cc_ops):
        key_expr = (
            f"ops_[{reads.index(key_src[1])}]"
            if key_src[0] == "operand"
            else repr(key_src[1])
        )
        delta_expr = (
            f"ops_[{reads.index(delta_src[1])}]"
            if delta_src[0] == "operand"
            else repr(delta_src[1])
        )
        ns[f"CKK{k}"] = ("cck", name)
        body += [
            f"        vk = ('cc', {name!r}, {key_expr})",
            "        cur = sp_get(vk)",
            "        if cur is None:",
            f"            keys = sp_get(CKK{k})",
            "            if keys is None:",
            "                keys = []",
            f"            keys.append({key_expr})",
            f"            sp[CKK{k}] = keys",
            f"            sp[vk] = {delta_expr}",
            "            c += MISS_EXTRA",
            "        else:",
            f"            sp[vk] = cur + {delta_expr}",
            "            c += HIT_EXTRA",
        ]
    if lane_span is None:
        body += [
            "        if t > busy:",
            "            busy = t + c",
            "        else:",
            "            busy += c",
        ]
    else:
        ns.update(LANE_SPAN=lane_span, LABEL=plan.label)
        body += [
            "        s = t if t > busy else busy",
            "        busy = s + c",
            "        LANE_SPAN(ln.network_id, s, busy, LABEL)",
        ]
    body += [
        "        total += c",
        "    sp[KVR_KEY] = sp_get(KVR_KEY, 0) + n",
        "    ln.busy_until = busy",
        "    ln.busy_cycles += total",
        "    ln.events_executed += n",
        # NEW_THREAD lifecycle, folded: each record pops one context id
        # and retires it, so the free list is unchanged — except that an
        # empty list makes the first record mint ``_next_tid`` (which
        # then recycles through the rest and lands back on the list).
        "    if not ln._free_tids:",
        "        ln._free_tids.append(ln._next_tid)",
        "        ln._next_tid += 1",
        "    return busy",
    ]
    exec(compile("\n".join(body), f"<batch:{plan.label}>", "exec"), ns)
    return ns["batch_fn"]


def _compile_emit(plan: HandlerPlan):
    """The emit side's ``(project, guard)`` for a traced plan.

    Both read an emitted record's operand slots straight from the emit
    loop's ``key`` (slot 1) and ``values`` (slot 2 on), so neither needs
    the ``(job_id, key) + values`` tuple.  ``project(key, values)``
    returns the payload, the slots in ``plan.reads``; it is ``None``
    when that is empty (the payload is ``()``).  ``guard(key, values)``
    returns the once-key of a plan with an ``ONCE_HIT``, else ``None``.
    """
    ns = {}
    src = []
    if plan.reads:
        parts = []
        for slot in plan.reads:
            parts.append("key" if slot == 1 else f"values[{slot - 2}]")
        src.append(
            f"def project(key, values):\n    return ({', '.join(parts)},)"
        )
    template = next((op[1] for op in plan.ops if op[0] == "ONCE_HIT"), None)
    if template is not None:
        parts = []
        for k, (kind, value) in enumerate(template):
            if kind == "const":
                ns[f"K{k}"] = value
                parts.append(f"K{k}")
            elif value == 1:
                parts.append("key")
            else:
                parts.append(f"values[{value - 2}]")
        src.append(
            f"def guard(key, values):\n    return ({', '.join(parts)},)"
        )
    if src:
        exec(compile("\n".join(src), f"<emit:{plan.label}>", "exec"), ns)
    return ns.get("project"), ns.get("guard")


# ---------------------------------------------------------------------------
# Validation against interpreted semantics
# ---------------------------------------------------------------------------


def _validate(runtime, plan: HandlerPlan, operands: Tuple[Any, ...]) -> bool:
    """Run interpreter and executor side by side on scratch lanes.

    Two records with identical operands exercise both combining-cache
    arms (first = miss, second = hit).  The interpreted side goes
    through the real handler with a real :class:`LaneContext`; the
    batched side goes through the generated executor; both start from
    scratch lanes that never touch the simulated machine — empty, except
    for a guarded plan's once-key, pre-seeded on both because a guarded
    record only ever parks with its flag set.  The executor's records
    carry the payload the emit side would park, built by the plan's own
    ``project``, so a projection missing a slot the executor reads fails
    here.  Agree on charged cycles and every scratchpad key, or the plan
    is rejected.
    """
    cls, func = runtime._handler_table[plan.label_id]
    ref = Lane(-1, 0, 0)
    cand = Lane(-1, 0, 0)
    record = MessageRecord(
        0, NEW_THREAD, plan.label, tuple(operands), None, 0, "msg",
        plan.label_id,
    )
    key, values = operands[1], operands[2:]
    interpreted_cycles = []
    try:
        if plan.guard is not None:
            once_key = plan.guard(key, values)
            ref.scratchpad[once_key] = cand.scratchpad[once_key] = True
        for _ in range(2):
            obj = cls()
            ctx = LaneContext(runtime, ref, obj, 0, record, 0.0)
            func(obj, ctx, *operands)
            if not ctx.terminated:
                return False
            interpreted_cycles.append(ctx.cycles)
    except Exception:
        return False
    try:
        times = [0.0, 0.0]
        payloads = (
            None if plan.project is None else [plan.project(key, values)] * 2
        )
        plan.batch_fn(cand, times, payloads, 0, 1)
        mid_busy = cand.busy_until
        plan.batch_fn(cand, times, payloads, 1, 2)
    except Exception:
        return False
    if mid_busy != interpreted_cycles[0]:
        return False
    if cand.busy_until - mid_busy != interpreted_cycles[1]:
        return False
    if cand.scratchpad != ref.scratchpad:
        return False
    return True


# ---------------------------------------------------------------------------
# Rendering (golden dumps)
# ---------------------------------------------------------------------------


def _fmt_src(src: Tuple[str, Any]) -> str:
    kind, v = src
    return f"op[{v}]" if kind == "operand" else repr(v)


def render_plan(plan: HandlerPlan) -> str:
    """Stable text form of a plan, for golden tests and debugging."""
    head = [f"handler {plan.label}"]
    if plan.meta:
        head.append(f"  {plan.meta}")
    head.append(
        "  batchable" if plan.parkable else f"  fallback ({plan.reason})"
    )
    lines = []
    for op in plan.ops:
        kind = op[0]
        if kind == "CHARGE":
            lines.append(f"  CHARGE {op[1]:g}")
        elif kind == "CC_ADD":
            lines.append(
                f"  CC_ADD cache={op[1]} key={_fmt_src(op[2])} "
                f"delta={_fmt_src(op[3])}"
            )
        elif kind == "KVR_RETURN":
            lines.append(f"  KVR_RETURN job={op[1]}")
        else:  # ONCE_HIT
            key = ", ".join(_fmt_src(part) for part in op[1])
            lines.append(f"  ONCE_HIT key=({key})")
    return "\n".join(head + lines)

