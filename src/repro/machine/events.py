"""Simulation event records.

The simulator's heap holds plain ``(time, dest, seq, record)`` tuples —
tuple comparison is the fastest total order CPython offers, and the heap
sees one comparison per sift step on every one of the millions of events a
run executes.  ``dest`` is the destination networkID (so ties at one
timestamp resolve by destination before sequence — the order is then
independent of how a sharded run partitions the machine), and ``seq``
packs the *issuing actor* and its private event count
(``(actor << 44) | count``): every push carries a globally unique key
assigned entirely at the point of issue, which is what lets a conservative
parallel run merge shard outputs into exactly the sequential order.
:class:`SimEvent` remains as a named view for code that wants field access
over positional unpacking.

A :class:`MessageRecord` describes one UpDown event message: the target
(networkID, thread selector, event label), the operands, and an optional
continuation event word.  Records carry the label *twice*:

* ``label`` — the human-readable ``"Class::event"`` string, used by host
  mailbox filtering, traces, logs, and error messages;
* ``label_id`` — the interned integer ID resolved once at send time, so
  the dispatcher indexes a handler table instead of re-resolving the
  string on every delivery.  ``label_id == -1`` marks a hand-built record
  (tests, host tooling); the dispatcher falls back to string resolution
  for those.

The machine layer is deliberately ignorant of the UDWeave object model: it
moves :class:`MessageRecord` values around and asks a registered *dispatcher*
to execute them.  The UDWeave runtime (``repro.udweave``) provides that
dispatcher.
"""

from __future__ import annotations

import pickle as _pickle
import struct as _struct
from typing import Any, Optional, Tuple

#: Thread-selector sentinel: create a new thread at delivery (``evw_new``).
NEW_THREAD: int = -1

#: networkID sentinel: the simulation host (results mailbox), not a lane.
HOST_NWID: int = -2

#: label_id sentinel: label not interned; resolve the string instead.
UNRESOLVED_LABEL: int = -1


class MessageRecord:
    """One event message on the wire.

    ``thread`` is either a concrete thread-context ID on the target lane or
    :data:`NEW_THREAD`.  ``label`` names the event handler; ``label_id`` is
    its interned integer form (see module docstring).  ``continuation`` is
    an encoded event word (or ``None``) passed through to the handler as
    its reply-to address — the paper's continuation-passing composition
    (§2.1.3).

    A plain ``__slots__`` class rather than a dataclass: record
    construction sits on the per-send hot path, and the generated
    frozen-dataclass ``__init__`` (one ``object.__setattr__`` per field)
    costs several times more than direct slot assignment.
    """

    __slots__ = (
        "network_id",
        "thread",
        "label",
        "operands",
        "continuation",
        "src_network_id",
        "kind",
        "label_id",
        "rdt",
    )

    def __init__(
        self,
        network_id: int,
        thread: int,
        label: str,
        operands: Tuple[Any, ...] = (),
        continuation: Optional[int] = None,
        src_network_id: Optional[int] = None,
        kind: str = "msg",
        label_id: int = UNRESOLVED_LABEL,
        rdt: Optional[Tuple[Any, ...]] = None,
    ) -> None:
        self.network_id = network_id
        self.thread = thread
        self.label = label
        self.operands = operands
        self.continuation = continuation
        self.src_network_id = src_network_id
        #: tag used by statistics ("msg" or "dram"); has no semantic effect.
        self.kind = kind
        self.label_id = label_id
        #: reliable-delivery tag (``repro.faults.transport``): ``None``
        #: for ordinary traffic, else ``("d", src, seq)`` data /
        #: ``("a", receiver, seq)`` ack / ``("t", dst, seq, attempt)``
        #: retransmit timer.  The dispatcher intercepts tagged records
        #: before label resolution.
        self.rdt = rdt

    def _key(self) -> Tuple[Any, ...]:
        return (
            self.network_id,
            self.thread,
            self.label,
            self.operands,
            self.continuation,
            self.src_network_id,
            self.kind,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MessageRecord):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MessageRecord(network_id={self.network_id}, "
            f"thread={self.thread}, label={self.label!r}, "
            f"operands={self.operands!r}, continuation={self.continuation!r})"
        )


class DramArrival:
    """A remote split-phase DRAM request in flight to its memory node.

    ``network_id`` is a *virtual* destination — ``total_lanes +
    memory_node`` — which the drain loop recognizes (it is outside the
    lane range) and services by running the memory-channel access and the
    reply hop *at the memory node, in arrival order*.  Keeping all
    mutations of a node's DRAM and reply channels at the owning node is
    what makes the memory system shardable: a requester only touches its
    own injection channel at issue time.

    The functional payload is not carried here: data words are read and
    written when the request *issues* (see ``repro.udweave.context``);
    only the timing flows through this record.
    """

    __slots__ = (
        "network_id",
        "response",
        "src_node",
        "memory_node",
        "nbytes",
        "local_offset",
        "back_bytes",
    )

    def __init__(
        self,
        network_id: int,
        response: Optional[MessageRecord],
        src_node: int,
        memory_node: int,
        nbytes: int,
        local_offset: int,
        back_bytes: int,
    ) -> None:
        self.network_id = network_id
        self.response = response
        self.src_node = src_node
        self.memory_node = memory_node
        self.nbytes = nbytes
        self.local_offset = local_offset
        #: wire bytes of the return direction (data for reads, a
        #: completion message for writes), fixed at issue time.
        self.back_bytes = back_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DramArrival(memory_node={self.memory_node}, "
            f"src_node={self.src_node}, nbytes={self.nbytes})"
        )


class RecordBatch:
    """Columnar (NumPy-backed) view of a homogeneous parked-record slice.

    The batch-dispatch path parks same-label reduce records per lane as
    plain ``(time, seq, plan, operands)`` tuples (see
    ``repro.udweave.ir``).  This view exposes one slice of that list as
    NumPy columns — delivery times, sequence keys, and one object column
    per operand slot — for tooling, tests, and analysis that want
    array-at-a-time access (histograms, order checks, key distributions)
    without re-walking Python tuples.

    The *executors* deliberately do not consume this view: per-key float
    accumulation order is part of the bit-exactness contract, which rules
    out vectorized reductions, and typical batches are far below the size
    where column staging pays for itself.  Construction is lazy and
    cheap; columns are materialized once on first access.
    """

    __slots__ = ("times", "seqs", "operands", "label")

    def __init__(self, times, seqs, operands, label: str) -> None:
        self.times = times
        self.seqs = seqs
        #: tuple of object-dtype arrays, one per operand slot
        self.operands = operands
        self.label = label

    @classmethod
    def from_entries(cls, entries, lo: int, hi: int) -> "RecordBatch":
        import numpy as np

        rows = entries[lo:hi]
        times = np.fromiter(
            (e[0] for e in rows), dtype=np.float64, count=len(rows)
        )
        seqs = np.fromiter(
            (e[1] for e in rows), dtype=np.int64, count=len(rows)
        )
        width = len(rows[0][3]) if rows else 0
        operands = tuple(
            np.fromiter(
                (e[3][j] for e in rows), dtype=object, count=len(rows)
            )
            for j in range(width)
        )
        label = rows[0][2].label if rows else ""
        return cls(times, seqs, operands, label)

    def __len__(self) -> int:
        return len(self.times)

    def is_sorted(self) -> bool:
        """True iff the slice is in (time, seq) delivery order."""
        import numpy as np

        if len(self.times) < 2:
            return True
        dt = np.diff(self.times)
        ok = dt > 0
        ties = dt == 0
        return bool(
            np.all(dt >= 0)
            and np.all(ok | (ties & (np.diff(self.seqs) > 0)))
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RecordBatch({self.label!r}, n={len(self.times)})"


class SimEvent:
    """Named view over a ``(time, dest, seq, record)`` heap tuple.

    The simulator's heap stores raw tuples (deterministic
    ``(time, dest, seq)`` ordering; ``seq`` is unique so the record is
    never compared).  This wrapper exists for API compatibility and
    debugging — construct one from a heap tuple with ``SimEvent(*entry)``.
    """

    __slots__ = ("time", "dest", "seq", "record")

    def __init__(
        self, time: float, dest: int, seq: int, record: MessageRecord
    ) -> None:
        self.time = time
        self.dest = dest
        self.seq = seq
        self.record = record

    def astuple(self) -> Tuple[float, int, int, MessageRecord]:
        return (self.time, self.dest, self.seq, self.record)

    def __lt__(self, other: "SimEvent") -> bool:
        return (self.time, self.dest, self.seq) < (
            other.time,
            other.dest,
            other.seq,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimEvent):
            return NotImplemented
        return self.astuple() == other.astuple()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimEvent(time={self.time}, dest={self.dest}, "
            f"seq={self.seq}, record={self.record!r})"
        )


# ---------------------------------------------------------------------------
# Boundary wire codec (shared-memory parallel transport)
# ---------------------------------------------------------------------------
#
# The forked-worker transport (``repro.machine.parallel``) ships boundary
# records between shard workers through shared-memory ring buffers.  Frames
# are struct-packed by these encoders — no per-record pickle on the healthy
# path.  Event labels are interned per stream: the first frame that carries
# a given ``label_id`` announces the label string, every later frame sends
# the 4-byte id alone, and the consumer-side decoder keeps the id → string
# table.  Rings are strictly FIFO (single producer, single consumer), so
# announce-before-use holds by construction.
#
# The value sub-codec covers the types records actually carry — ``None``,
# ``bool``, ``int`` (8-byte fast path, arbitrary precision fallback),
# ``float``, ``str``, ``bytes``, and nested tuples.  Anything else (exotic
# operand payloads from hand-built tests) falls back to a tagged pickle of
# that one value; the frame framing stays intact either way.

#: frame payload type tags (first byte after the u32 length prefix).
WIRE_ENTRY = 1  #: a heap entry ``(time, dest, seq, record)``
WIRE_WLOG = 2  #: one functional-memory write ``(va, values)``

#: record type tags inside a :data:`WIRE_ENTRY` frame.
_REC_MSG = 1
_REC_DRAM = 2

#: label field shapes
_LBL_UNRESOLVED = 0  #: ``label_id == -1``; the string follows
_LBL_ANNOUNCE = 1  #: interned id + string (first use on this stream)
_LBL_CACHED = 2  #: interned id alone; decoder looks the string up

# value tags
_V_NONE = 0
_V_TRUE = 1
_V_FALSE = 2
_V_I64 = 3
_V_BIG = 4
_V_F64 = 5
_V_STR = 6
_V_BYTES = 7
_V_TUPLE = 8
_V_PICKLE = 9

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1

_pack = _struct.pack
_unpack_from = _struct.unpack_from


def _enc_value(buf: bytearray, v: Any) -> None:
    t = type(v)
    if v is None:
        buf.append(_V_NONE)
    elif t is int:
        if _I64_MIN <= v <= _I64_MAX:
            buf.append(_V_I64)
            buf += v.to_bytes(8, "little", signed=True)
        else:
            raw = v.to_bytes((v.bit_length() + 8) // 8, "little", signed=True)
            buf.append(_V_BIG)
            buf += len(raw).to_bytes(4, "little")
            buf += raw
    elif t is float:
        buf.append(_V_F64)
        buf += _pack("<d", v)
    elif t is str:
        raw = v.encode("utf-8")
        buf.append(_V_STR)
        buf += len(raw).to_bytes(4, "little")
        buf += raw
    elif t is bool:
        buf.append(_V_TRUE if v else _V_FALSE)
    elif t is tuple:
        buf.append(_V_TUPLE)
        buf += len(v).to_bytes(4, "little")
        for item in v:
            _enc_value(buf, item)
    elif t is bytes:
        buf.append(_V_BYTES)
        buf += len(v).to_bytes(4, "little")
        buf += v
    else:
        raw = _pickle.dumps(v, protocol=_pickle.HIGHEST_PROTOCOL)
        buf.append(_V_PICKLE)
        buf += len(raw).to_bytes(4, "little")
        buf += raw


def _dec_value(buf, pos: int):
    tag = buf[pos]
    pos += 1
    if tag == _V_NONE:
        return None, pos
    if tag == _V_I64:
        return (
            int.from_bytes(buf[pos : pos + 8], "little", signed=True),
            pos + 8,
        )
    if tag == _V_F64:
        return _unpack_from("<d", buf, pos)[0], pos + 8
    if tag == _V_STR:
        n = int.from_bytes(buf[pos : pos + 4], "little")
        pos += 4
        return bytes(buf[pos : pos + n]).decode("utf-8"), pos + n
    if tag == _V_TRUE:
        return True, pos
    if tag == _V_FALSE:
        return False, pos
    if tag == _V_TUPLE:
        n = int.from_bytes(buf[pos : pos + 4], "little")
        pos += 4
        items = []
        append = items.append
        for _ in range(n):
            v, pos = _dec_value(buf, pos)
            append(v)
        return tuple(items), pos
    if tag == _V_BIG:
        n = int.from_bytes(buf[pos : pos + 4], "little")
        pos += 4
        return (
            int.from_bytes(buf[pos : pos + n], "little", signed=True),
            pos + n,
        )
    if tag == _V_BYTES:
        n = int.from_bytes(buf[pos : pos + 4], "little")
        pos += 4
        return bytes(buf[pos : pos + n]), pos + n
    if tag == _V_PICKLE:
        n = int.from_bytes(buf[pos : pos + 4], "little")
        pos += 4
        return _pickle.loads(bytes(buf[pos : pos + n])), pos + n
    raise ValueError(f"corrupt boundary frame: unknown value tag {tag}")


class BoundaryEncoder:
    """Stream encoder for one producer→consumer boundary ring.

    Stateful only for label interning (``_announced`` tracks which
    ``label_id`` values this stream has already carried a string for);
    everything else is pure per-frame encoding into a caller-supplied
    ``bytearray``.
    """

    __slots__ = ("_announced",)

    def __init__(self) -> None:
        self._announced: set = set()

    # -- records -----------------------------------------------------

    def _msg_body(self, buf: bytearray, rec: "MessageRecord") -> None:
        buf += rec.network_id.to_bytes(8, "little", signed=True)
        buf += rec.thread.to_bytes(8, "little", signed=True)
        lid = rec.label_id
        if lid < 0:
            buf.append(_LBL_UNRESOLVED)
            _enc_value(buf, rec.label)
        elif lid in self._announced:
            buf.append(_LBL_CACHED)
            buf += lid.to_bytes(4, "little")
        else:
            self._announced.add(lid)
            buf.append(_LBL_ANNOUNCE)
            buf += lid.to_bytes(4, "little")
            _enc_value(buf, rec.label)
        _enc_value(buf, rec.operands)
        _enc_value(buf, rec.continuation)
        _enc_value(buf, rec.src_network_id)
        kind = rec.kind
        if kind == "msg":
            buf.append(0)
        elif kind == "dram":
            buf.append(1)
        else:
            buf.append(2)
            _enc_value(buf, kind)
        _enc_value(buf, rec.rdt)

    def encode_entry(self, buf: bytearray, entry) -> None:
        """Append one ``(time, dest, seq, record)`` heap entry frame body."""
        t, dest, seq, rec = entry
        buf.append(WIRE_ENTRY)
        cls = type(rec)
        if cls is MessageRecord:
            buf.append(_REC_MSG)
            _enc_value(buf, t)
            _enc_value(buf, dest)
            _enc_value(buf, seq)
            self._msg_body(buf, rec)
        elif cls is DramArrival:
            buf.append(_REC_DRAM)
            _enc_value(buf, t)
            _enc_value(buf, dest)
            _enc_value(buf, seq)
            resp = rec.response
            if resp is None:
                buf.append(0)
            else:
                buf.append(1)
                self._msg_body(buf, resp)
            buf += rec.src_node.to_bytes(8, "little", signed=True)
            buf += rec.memory_node.to_bytes(8, "little", signed=True)
            _enc_value(buf, rec.nbytes)
            _enc_value(buf, rec.local_offset)
            _enc_value(buf, rec.back_bytes)
        else:
            raise TypeError(
                f"cannot encode boundary record of type {cls.__name__}"
            )

    def encode_wlog(self, buf: bytearray, va: int, values, step: int = 0) -> None:
        """Append one functional-memory write frame body.

        ``step`` is the producer's window sub-step counter at write time:
        consumers defer application until their own progress passes it,
        which keeps foreign-write visibility deterministic no matter when
        the frame physically arrives.
        """
        buf.append(WIRE_WLOG)
        _enc_value(buf, va)
        _enc_value(buf, step)
        buf += len(values).to_bytes(4, "little")
        for v in values:
            _enc_value(buf, v)


class BoundaryDecoder:
    """Stream decoder paired with one :class:`BoundaryEncoder`.

    Holds the interned ``label_id → label`` table the producer announces
    incrementally.  :meth:`decode_frame` returns either ``("entry",
    heap_entry)`` or ``("wlog", va, values, step)``.
    """

    __slots__ = ("_labels",)

    def __init__(self) -> None:
        self._labels: dict = {}

    def _msg_body(self, buf, pos: int):
        network_id = int.from_bytes(buf[pos : pos + 8], "little", signed=True)
        thread = int.from_bytes(buf[pos + 8 : pos + 16], "little", signed=True)
        pos += 16
        shape = buf[pos]
        pos += 1
        if shape == _LBL_UNRESOLVED:
            label_id = UNRESOLVED_LABEL
            label, pos = _dec_value(buf, pos)
        else:
            label_id = int.from_bytes(buf[pos : pos + 4], "little")
            pos += 4
            if shape == _LBL_ANNOUNCE:
                label, pos = _dec_value(buf, pos)
                self._labels[label_id] = label
            else:
                try:
                    label = self._labels[label_id]
                except KeyError:
                    raise ValueError(
                        f"corrupt boundary stream: label id {label_id} "
                        f"used before announcement"
                    ) from None
        operands, pos = _dec_value(buf, pos)
        continuation, pos = _dec_value(buf, pos)
        src_network_id, pos = _dec_value(buf, pos)
        kcode = buf[pos]
        pos += 1
        if kcode == 0:
            kind = "msg"
        elif kcode == 1:
            kind = "dram"
        else:
            kind, pos = _dec_value(buf, pos)
        rdt, pos = _dec_value(buf, pos)
        rec = MessageRecord(
            network_id,
            thread,
            label,
            operands,
            continuation,
            src_network_id,
            kind,
            label_id,
            rdt,
        )
        return rec, pos

    def decode_frame(self, buf, pos: int = 0):
        """Decode one frame payload (without its u32 length prefix)."""
        ftype = buf[pos]
        pos += 1
        if ftype == WIRE_WLOG:
            va, pos = _dec_value(buf, pos)
            step, pos = _dec_value(buf, pos)
            n = int.from_bytes(buf[pos : pos + 4], "little")
            pos += 4
            values = []
            append = values.append
            for _ in range(n):
                v, pos = _dec_value(buf, pos)
                append(v)
            return ("wlog", va, values, step)
        if ftype != WIRE_ENTRY:
            raise ValueError(f"corrupt boundary frame: type {ftype}")
        rtype = buf[pos]
        pos += 1
        t, pos = _dec_value(buf, pos)
        dest, pos = _dec_value(buf, pos)
        seq, pos = _dec_value(buf, pos)
        if rtype == _REC_MSG:
            rec, pos = self._msg_body(buf, pos)
        elif rtype == _REC_DRAM:
            has_resp = buf[pos]
            pos += 1
            resp = None
            if has_resp:
                resp, pos = self._msg_body(buf, pos)
            src_node = int.from_bytes(
                buf[pos : pos + 8], "little", signed=True
            )
            memory_node = int.from_bytes(
                buf[pos + 8 : pos + 16], "little", signed=True
            )
            pos += 16
            nbytes, pos = _dec_value(buf, pos)
            local_offset, pos = _dec_value(buf, pos)
            back_bytes, pos = _dec_value(buf, pos)
            rec = DramArrival(
                dest, resp, src_node, memory_node, nbytes, local_offset,
                back_bytes,
            )
        else:
            raise ValueError(f"corrupt boundary frame: record type {rtype}")
        return ("entry", (t, dest, seq, rec))
