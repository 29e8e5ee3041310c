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
