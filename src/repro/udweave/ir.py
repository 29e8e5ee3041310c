"""Intrinsic event-IR: handler lowering and batched execution.

The simulator's per-event cost is dominated by the Python machinery
*around* a handler, not the handler body: every KVMSR reduce tuple pays a
``MessageRecord`` allocation, a heap push, a heap pop, a drain-loop
iteration, a dispatcher call, a thread allocate/deallocate, and a pooled
``LaneContext`` rearm — for a body that is often two scratchpad updates.
Following the intrinsic-function idiom (handlers decompose into a small
fixed op vocabulary) this module lowers a registered handler body into a
linear sequence of intrinsic ops and, for bodies the lowering can prove
*batch-safe*, compiles a specialized executor that applies N same-label
records to a lane in one pass.

Op vocabulary (golden dumps in ``tests/udweave/test_event_ir.py``)::

    CHARGE n            fixed lane cycles (Table 2 sums; exact integers)
    CC_ADD cache        combining-cache fetch&add (miss/hit arms inside)
    KVR_RETURN job      reduce-tuple retirement (credit bump + terminate)
    ONCE_HIT key        write-once flag test, *already-set arm only*
    SCRATCH_RW op key   raw scratchpad access (result escapes the trace)
    SEND label          message send
    KV_EMIT             intermediate-tuple emit (send via reduce binding)
    DRAM_READ/DRAM_WRITE n   split-phase memory traffic
    SPAWN label         thread spawn
    YIELD / TERMINATE   thread state transition

Lowering is *trace-based*: the handler runs once against a
:class:`TraceContext` whose operands are opaque :class:`Symbol` values.
Any operation the trace cannot represent exactly — symbolic arithmetic,
data-dependent control flow through a symbol, raw lane access — raises
:class:`LoweringUnsupported` and the handler keeps the interpreter
forever (per-event fallback; coverage grows incrementally).

Lowering *executes the handler body*, and the compiled plan replays only
the intrinsics the trace saw: a host-side Python effect in the body (a
collector ``dict.setdefault(...).append(...)``) is invisible to the
trace, would run once with ``Symbol`` arguments, and then never again on
the batch path.  No trace can discover such an effect by itself, so the
emit path lowers only reduce classes that *declare*
``ReduceTask.intrinsic_only = True``; everything else is never traced
and keeps the interpreter.  :func:`lower_label` /
:func:`lower_reduce_entry` themselves stay inspection APIs — they run
whatever body they are pointed at.

Batch safety
------------
A lowered body is **batch-safe** only when every op is in
:data:`PARK_SAFE_OPS` — pure cycle charges, the two proven KVMSR
composites (``CC_ADD``, ``KVR_RETURN``) and the write-once guard
(``ONCE_HIT``), with exactly one terminating ``KVR_RETURN``.  Those
bodies touch nothing but their own lane's scratchpad and clock: no
sends, no DRAM, no spawns, no raw reads whose value could steer control
flow.  That is what makes *deferred* execution legal: parked records
cannot schedule anything, so replaying them in exact ``(time, seq)`` key
order just before the next observation of the lane reproduces the
interpreted schedule bit-for-bit (see ``machine/simulator.py`` and
DESIGN.md "Event IR & batched dispatch").

Write-once guard
----------------
``ctx.sp_once(key)`` tests-and-sets a scratchpad flag that is never
overwritten or deleted afterwards.  The trace answers ``True`` and so
lowers the *already-set* arm only; the plan carries a compiled
``guard(operands) -> key`` and the emit side parks a record only when
that key is already in the destination lane's scratchpad.  The flag is
monotone and parked records never create one, so "set at emit" implies
"set at delivery": the interpreter would take exactly the traced arm.
The miss arm (whatever it does — DRAM traffic in BFS) is never lowered;
those records ride the heap as before.

Every batch-safe plan is additionally **validated once per program**
against the interpreted semantics before its first record parks: the
real handler and the generated single-record executor run side by side
on scratch lanes (miss arm, then hit arm) and must agree on the charged
cycles and every scratchpad mutation.  A divergence disables the plan —
the handler stays on the interpreter — rather than risking a wrong
simulation.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.machine.events import NEW_THREAD, MessageRecord
from repro.machine.lane import Lane

from .context import LaneContext

__all__ = [
    "LoweringUnsupported",
    "Symbol",
    "TraceContext",
    "HandlerPlan",
    "PARK_SAFE_OPS",
    "lower_label",
    "lower_reduce_entry",
    "render_plan",
]

#: ops a batch-safe body may consist of (see module docstring).
PARK_SAFE_OPS = frozenset(
    {"CHARGE", "CC_ADD", "KVR_RETURN", "ONCE_HIT", "TERMINATE"}
)


class LoweringUnsupported(Exception):
    """The handler body cannot be represented as a linear op sequence."""


class Symbol:
    """An opaque operand placeholder flowing through a handler trace.

    Any attempt to *compute* with the symbol — arithmetic, comparison,
    truth testing, iteration, attribute access — aborts the trace: the
    lowering only accepts handlers that move operands through known
    intrinsics unexamined.  (``is``/``is not`` tests cannot be
    intercepted at all, which is one reason raw ``SCRATCH_RW`` results
    force interpreter fallback: a traced path that silently followed one
    arm of an ``is None`` check would be wrong for the other.)
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
    """A ``LaneContext`` stand-in that records intrinsic ops.

    Charging intrinsics append ops; state-bearing intrinsics return
    fresh :class:`Symbol` results (which abort the trace if examined);
    anything touching real machine state raises
    :class:`LoweringUnsupported`.  Composite intrinsics — the combining
    cache's ``add`` and ``ReduceTask.kv_reduce_return`` — recognize the
    trace context and call :meth:`op_cc_add` / :meth:`op_kvr_return`
    instead of executing (see ``kvmsr/combining.py`` / ``engine.py``).
    """

    def __init__(self, runtime) -> None:
        self.runtime = runtime
        self.costs = runtime.config.costs
        self.start = 0.0
        self.cycles = float(self.costs.event_dispatch)
        self.yielded = False
        self.terminated = False
        self.ops: List[Tuple[Any, ...]] = []
        self._fresh = 0

    # -- things a traced handler may consult ---------------------------

    @property
    def config(self):
        return self.runtime.config

    # -- things a traced handler must not touch ------------------------

    def _unsupported(self, what: str):
        raise LoweringUnsupported(what)

    @property
    def lane(self):
        self._unsupported("raw lane access")

    @property
    def sim(self):
        self._unsupported("raw simulator access")

    @property
    def record(self):
        self._unsupported("raw record access")

    def __getattr__(self, name: str):
        raise LoweringUnsupported(f"untraceable context intrinsic {name!r}")

    # -- composite-intrinsic hooks -------------------------------------

    def op_cc_add(self, cache, key, delta) -> None:
        self.ops.append(("CC_ADD", cache.name, _src(key), _src(delta)))

    def op_kvr_return(self, job_id: int) -> None:
        if self.terminated or self.yielded:
            self._unsupported("kv_reduce_return after thread already ended")
        self.ops.append(("KVR_RETURN", job_id))
        self.ops.append(("TERMINATE",))
        self.terminated = True

    def op_kv_emit(self, job, key, values) -> None:
        self.ops.append(("KV_EMIT", job.name, _src(key)))
        raise LoweringUnsupported("kv_emit inside handler body")

    # -- charging intrinsics -------------------------------------------

    def _charge(self, cycles: float) -> None:
        self.cycles += cycles
        ops = self.ops
        if ops and ops[-1][0] == "CHARGE":
            ops[-1] = ("CHARGE", ops[-1][1] + cycles)
        else:
            ops.append(("CHARGE", cycles))

    def work(self, instructions: int = 1) -> None:
        self._charge(instructions * self.costs.instruction)

    def charge(self, cycles: float) -> None:
        self._charge(cycles)

    def _symbol(self, stem: str) -> Symbol:
        self._fresh += 1
        return Symbol(-self._fresh, f"{stem}{self._fresh}")

    # -- state-bearing intrinsics (results escape the trace) -----------

    def sp_read(self, key, default: Any = None):
        self._charge(self.costs.scratchpad_access)
        self.ops.append(("SCRATCH_RW", "read", repr(key)))
        return self._symbol("sp")

    def sp_write(self, key, value) -> None:
        self._charge(self.costs.scratchpad_access)
        self.ops.append(("SCRATCH_RW", "write", repr(key)))

    def sp_once(self, key) -> bool:
        """Trace the *already-set* arm of a write-once flag test.

        The one access the hit arm pays is part of the op (no separate
        ``CHARGE``).  The guard is evaluated at emit time against state
        the body has not touched yet, so it must come first: at most one
        per body, before any op other than a pure charge.
        """
        names = [op[0] for op in self.ops]
        if "ONCE_HIT" in names:
            self._unsupported("more than one sp_once in one body")
        if any(name != "CHARGE" for name in names):
            self._unsupported("sp_once after a state-changing op")
        if not isinstance(key, tuple) or any(
            isinstance(part, Symbol) and part.index < 0 for part in key
        ):
            self._unsupported(
                "sp_once key must be a tuple of constants and operands"
            )
        self.cycles += self.costs.scratchpad_access
        self.ops.append(("ONCE_HIT", tuple(_src(part) for part in key)))
        return True

    def sp_read_pooled(self, lane_in_accel, key, default: Any = None):
        self.ops.append(("SCRATCH_RW", "read_pooled", repr(key)))
        raise LoweringUnsupported("pooled scratchpad access")

    def sp_write_pooled(self, lane_in_accel, key, value) -> None:
        self.ops.append(("SCRATCH_RW", "write_pooled", repr(key)))
        raise LoweringUnsupported("pooled scratchpad access")

    def send_event(self, evw, *operands) -> None:
        self.ops.append(("SEND", "<event-word>"))
        raise LoweringUnsupported("send to encoded event word")

    def spawn(self, network_id, label, *operands, **kw) -> None:
        self.ops.append(("SPAWN", label))
        raise LoweringUnsupported("thread spawn")

    def spawn_resolved(self, *a, **kw) -> None:
        self.ops.append(("SPAWN", "<resolved>"))
        raise LoweringUnsupported("thread spawn")

    def send_dram_read(self, addr, nwords, reply, **kw) -> None:
        self.ops.append(("DRAM_READ", nwords))
        raise LoweringUnsupported("split-phase DRAM read")

    send_dram_reads = send_dram_read

    def send_dram_write(self, addr, words, **kw) -> None:
        self.ops.append(("DRAM_WRITE", len(words) if hasattr(words, "__len__") else "?"))
        raise LoweringUnsupported("split-phase DRAM write")

    def yield_(self) -> None:
        if self.terminated or self.yielded:
            self._unsupported("yield after thread already ended")
        self._charge(self.costs.thread_yield)
        self.ops.append(("YIELD",))
        self.yielded = True

    def yield_terminate(self) -> None:
        if self.terminated or self.yielded:
            self._unsupported("terminate after thread already ended")
        self._charge(self.costs.thread_deallocate)
        self.ops.append(("TERMINATE",))
        self.terminated = True


class HandlerPlan:
    """One handler's lowered form plus (when batch-safe) its executor.

    ``parkable`` plans expose ``batch_fn(lane, entries, lo, hi)``: apply
    ``entries[lo:hi]`` — parked ``(time, seq, plan, operands)`` rows in
    key order — to ``lane``, charging exactly what the interpreter would
    have, and return the lane's new ``busy_until`` (the max completion
    tick of the batch).  Non-parkable plans exist for inspection (golden
    dumps) and carry ``reason``.

    A plan traced through ``sp_once`` also carries ``guard(operands) ->
    key``: a record may park only if that key is already in its
    destination lane's scratchpad (module docstring, "Write-once
    guard").  ``parked`` / ``guard_declined`` count the emit side's
    decisions for :meth:`Simulator.batch_report`.
    """

    __slots__ = (
        "label",
        "label_id",
        "ops",
        "parkable",
        "reason",
        "batch_fn",
        "meta",
        "guard",
        "parked",
        "guard_declined",
    )

    def __init__(
        self,
        label: str,
        label_id: int,
        ops: List[Tuple[Any, ...]],
        parkable: bool,
        reason: str = "",
        batch_fn=None,
        meta: str = "",
    ) -> None:
        self.label = label
        self.label_id = label_id
        self.ops = ops
        self.parkable = parkable
        self.reason = reason
        self.batch_fn = batch_fn
        self.meta = meta
        self.guard = None
        self.parked = 0
        self.guard_declined = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "parkable" if self.parkable else f"fallback: {self.reason}"
        return f"HandlerPlan({self.label!r}, {kind}, {len(self.ops)} ops)"


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


def _classify(ops: List[Tuple[Any, ...]]) -> Tuple[bool, str]:
    names = [op[0] for op in ops]
    if any(name not in PARK_SAFE_OPS for name in names):
        bad = next(n for n in names if n not in PARK_SAFE_OPS)
        return False, f"op {bad} is not batch-safe"
    if names.count("KVR_RETURN") != 1:
        return False, "batch-safe bodies retire exactly one reduce tuple"
    return True, ""


def lower_label(
    runtime,
    label: str,
    operands: Sequence[Any],
    meta: str = "",
) -> HandlerPlan:
    """Lower one registered handler; never raises.

    **Executes the handler body** (once, with :class:`Symbol` operands):
    point it only at bodies whose every effect goes through ``ctx`` —
    the emit path does so by requiring ``ReduceTask.intrinsic_only``.

    Returns a parkable plan (with a compiled ``batch_fn``) when the body
    is batch-safe, and a fallback plan carrying the ops traced so far
    plus the refusal ``reason`` otherwise.  ``operands`` fixes the trace
    arity — and supplies any structurally significant concrete value:
    KVMSR's leading ``job_id`` stays concrete so ``job_of`` resolves at
    trace time, while every other slot is replaced by a :class:`Symbol`
    carrying its operand index.
    """
    label_id = runtime.label_id(label)
    cls, func = runtime._handler_table[label_id]
    obj = cls()
    tctx = TraceContext(runtime)
    syms = tuple(
        operands[i]
        if i == 0 and isinstance(operands[i], int)
        else Symbol(i, f"op{i}")
        for i in range(len(operands))
    )
    try:
        func(obj, tctx, *syms)
        if not (tctx.terminated or tctx.yielded):
            raise LoweringUnsupported(
                "handler returned without ending its event"
            )
    except LoweringUnsupported as exc:
        return HandlerPlan(
            label, label_id, list(tctx.ops), False, str(exc), meta=meta
        )
    except Exception as exc:  # symbolic operands break arbitrary Python
        return HandlerPlan(
            label, label_id, list(tctx.ops), False,
            f"trace aborted: {type(exc).__name__}: {exc}", meta=meta,
        )
    parkable, reason = _classify(tctx.ops)
    plan = HandlerPlan(label, label_id, tctx.ops, parkable, reason, meta=meta)
    if parkable:
        plan.batch_fn = _compile_batch_fn(plan, runtime.config.costs)
        plan.guard = _compile_guard(plan)
    return plan


def lower_reduce_entry(runtime, job, operands: Sequence[Any]) -> HandlerPlan:
    """Lower a KVMSR job's ``__reduce_entry__`` label and validate it.

    Called lazily by ``MapTask.kv_emit`` on the first emitted tuple of a
    job (the first record supplies the operand arity).  The returned
    plan is parkable only if lowering succeeded AND the generated
    executor agreed with the interpreter on a two-record (miss arm, hit
    arm) validation run.
    """
    plan = lower_label(
        runtime, job.reduce_entry_label, operands,
        meta=f"binding={job.reduce_binding!r}",
    )
    if not plan.parkable:
        return plan
    if plan.label in runtime.sim._wd_idle_labels:
        # the watchdog counts every batched record as progress
        plan.reason = "idle-marked for the watchdog"
    elif not _validate(runtime, plan, tuple(operands)):
        plan.reason = "validation against interpreted semantics failed"
    elif (rec := runtime.recorder) is not None and rec.record_lane_spans:
        # validated span-free: ``_validate`` must not write spans
        plan.batch_fn = _compile_batch_fn(
            plan, runtime.config.costs, rec.lane_span
        )
    if plan.reason:
        plan.parkable = False
        plan.batch_fn = plan.guard = None
    return plan


# ---------------------------------------------------------------------------
# Batch executor codegen
# ---------------------------------------------------------------------------


def _compile_batch_fn(plan: HandlerPlan, costs, lane_span=None):
    """Compile a specialized ``batch_fn`` for a batch-safe op sequence.

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

    The executor iterates the parked tuples directly: the per-key float
    accumulation order is part of the bit-exactness contract, which
    rules out vectorized reductions (``np.add.at`` ordering across
    repeated indices is not a guarantee we can rest fingerprints on),
    and the mean batch is small enough that column staging would cost
    more than it saves.
    """
    sp_cost = float(costs.scratchpad_access)
    instr = float(costs.instruction)
    base = float(costs.event_dispatch) + float(costs.thread_deallocate)
    cc_ops = []
    kvr_job = None
    for op in plan.ops:
        kind = op[0]
        if kind == "CHARGE":
            base += op[1]
        elif kind == "CC_ADD":
            cc_ops.append(op)
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
        "def batch_fn(ln, entries, lo, hi):",
        "    sp = ln.scratchpad",
        "    sp_get = sp.get",
        "    busy = ln.busy_until",
        "    total = 0.0",
        "    n = hi - lo",
        "    for i in range(lo, hi):",
        "        e = entries[i]",
        "        t = e[0]",
        "        ops_ = e[3]",
        "        c = BASE_C",
    ]
    for k, (_kind, name, key_src, delta_src) in enumerate(cc_ops):
        key_expr = (
            f"ops_[{key_src[1]}]" if key_src[0] == "operand" else repr(key_src[1])
        )
        delta_expr = (
            f"ops_[{delta_src[1]}]"
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


def _compile_guard(plan: HandlerPlan):
    """``guard(operands) -> once-key`` for a plan with an ``ONCE_HIT``."""
    template = next((op[1] for op in plan.ops if op[0] == "ONCE_HIT"), None)
    if template is None:
        return None
    ns = {}
    parts = []
    for k, (kind, value) in enumerate(template):
        if kind == "operand":
            parts.append(f"ops_[{value}]")
        else:
            ns[f"K{k}"] = value
            parts.append(f"K{k}")
    src = f"def guard(ops_):\n    return ({', '.join(parts)},)"
    exec(compile(src, f"<guard:{plan.label}>", "exec"), ns)
    return ns["guard"]


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
    record only ever parks with its flag set.  Agree on charged cycles
    and every scratchpad key, or the plan is rejected.
    """
    cls, func = runtime._handler_table[plan.label_id]
    ref = Lane(-1, 0, 0)
    cand = Lane(-1, 0, 0)
    record = MessageRecord(
        0, NEW_THREAD, plan.label, tuple(operands), None, 0, "msg",
        plan.label_id,
    )
    interpreted_cycles = []
    try:
        if plan.guard is not None:
            once_key = plan.guard(operands)
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
        batch = [(0.0, i, plan, tuple(operands)) for i in range(2)]
        plan.batch_fn(cand, batch, 0, 1)
        mid_busy = cand.busy_until
        plan.batch_fn(cand, batch, 1, 2)
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
        elif kind == "SCRATCH_RW":
            lines.append(f"  SCRATCH_RW {op[1]} {op[2]}")
        elif kind == "ONCE_HIT":
            key = ", ".join(_fmt_src(part) for part in op[1])
            lines.append(f"  ONCE_HIT key=({key})")
        else:
            lines.append("  " + " ".join(str(p) for p in op))
    return "\n".join(head + lines)

