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

