"""Opt-in reliable delivery for remote lane-to-lane messages.

The UpDown fabric in the paper is lossless, so UDWeave programs (and
KVMSR's credit-counted termination) assume every send arrives exactly
once.  Under a :class:`~repro.faults.FaultPlan` that drops or duplicates
messages, that assumption breaks — a single lost reduce tuple hangs the
quiescence poll forever.  :class:`ReliableTransport` restores
exactly-once delivery with the classic acknowledge/retransmit protocol,
implemented the way a real UDWeave library would build it: all protocol
state lives in lane scratchpads, and all protocol traffic rides the
modeled fabric and pays the Table 2 / injection-channel costs.

Protocol (per ``(source lane, destination lane)`` flow):

* **track** — ``Simulator.issue`` hands every eligible outbound remote
  message here before it enters the fabric.  The sender assigns the next
  per-destination sequence number, tags the record (``rdt = ("d", src,
  seq)``), stores it in a pending-ack table in its scratchpad, and
  schedules a local retransmit timer.
* **data** — on delivery, the receiver checks a per-source seen-set in
  its scratchpad.  New sequence numbers are dispatched to the
  application handler; duplicates are suppressed.  Either way an ack
  (``rdt = ("a", receiver, seq)``) is sent back — acks are themselves
  remote messages, subject to the same fault plan, but never tracked
  (loss of an ack just means one more retransmit).
* **ack** — the sender drops the pending entry; the retransmit timer
  finds nothing and expires silently.
* **timer** — if the entry is still pending, the sender re-sends the
  original record (paying injection + latency again — retransmit costs
  are visible in ``SimStats``) and re-arms the timer with exponential
  backoff, up to ``max_retries``; after that the entry is abandoned and
  counted (``transport_give_ups``) so the liveness watchdog, not an
  unbounded retry storm, reports the stall.

Determinism: sequence numbers, timers, and retransmissions are all
scheduled through the simulator's actor-stamped issue and alarm paths
from state owned by a single lane, so reliable runs are exactly as
reproducible and shard-invariant as plain ones.
"""

from __future__ import annotations

from typing import Optional

from repro.machine.events import MessageRecord

#: scratchpad-key tags for the protocol state (lane scratchpads are
#: key/value stores; tuple keys keep the namespace collision-free).
_SEQ = "__rdt_seq__"
_PEND = "__rdt_pend__"
_SEEN = "__rdt_seen__"

#: labels of the protocol's control events (never resolved against the
#: program image — the dispatcher intercepts tagged records first).
TIMER_LABEL = "__rdt_timer__"
ACK_LABEL = "__rdt_ack__"

#: control labels the liveness watchdog should not count as progress:
#: retry traffic *attempts* progress, but only application deliveries
#: prove it.
IDLE_CONTROL_LABELS = frozenset({TIMER_LABEL, ACK_LABEL})


class ReliabilityConfig:
    """Tuning knobs for :class:`ReliableTransport`."""

    def __init__(
        self,
        ack_timeout_cycles: Optional[float] = None,
        backoff: float = 2.0,
        max_retries: int = 8,
    ) -> None:
        if ack_timeout_cycles is not None and ack_timeout_cycles <= 0:
            raise ValueError("ack_timeout_cycles must be positive")
        if backoff < 1.0:
            raise ValueError("backoff must be at least 1.0")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        #: ``None`` resolves to the machine's
        #: ``MachineConfig.default_ack_timeout_cycles`` at attach time.
        self.ack_timeout_cycles = ack_timeout_cycles
        self.backoff = float(backoff)
        self.max_retries = int(max_retries)


class ReliableTransport:
    """Ack/retry delivery layer bound to one simulator."""

    def __init__(self, sim, config: Optional[ReliabilityConfig] = None) -> None:
        self.sim = sim
        self.config = config or ReliabilityConfig()
        timeout = self.config.ack_timeout_cycles
        if timeout is None:
            timeout = sim.config.default_ack_timeout_cycles
        self.timeout_cycles = float(timeout)
        self.backoff = self.config.backoff
        self.max_retries = self.config.max_retries
        costs = sim.config.costs
        self._sp_cost = float(costs.scratchpad_access)
        self._send_cost = float(costs.send_message)
        #: abandoned deliveries as ``(t, src_lane, dst_lane, seq)`` —
        #: kept regardless of whether a flight recorder is attached, so
        #: SLO verdicts (``repro.service``) can name what was lost
        #: instead of only counting ``stats.transport_give_ups``.
        self.give_up_log: list = []

    # ------------------------------------------------------------------
    # Sender side
    # ------------------------------------------------------------------

    def track(self, record: MessageRecord, t_issue: float) -> None:
        """Tag an outbound remote message and arm its retransmit timer.

        Called by ``Simulator.issue`` for untagged lane-to-lane remote
        sends; the send itself proceeds normally afterwards (the tagged
        record enters the fabric and may still be dropped/duplicated).
        """
        sim = self.sim
        src = record.src_network_id
        dst = record.network_id
        sp = sim.lane(src).scratchpad
        seq_key = (_SEQ, dst)
        seq = sp.get(seq_key, 0)
        sp[seq_key] = seq + 1
        record.rdt = ("d", src, seq)
        sp[(_PEND, dst, seq)] = record
        timer = MessageRecord(
            src, 0, TIMER_LABEL, (), None, src, "ctl",
        )
        timer.rdt = ("t", dst, seq, 1)
        # Local alarm, not fabric traffic.
        sim.alarm(t_issue + self.timeout_cycles, timer)
        sim.stats.transport_tracked += 1

    def on_ack(self, lane, record: MessageRecord) -> float:
        """An ack reached the original sender: retire the pending entry."""
        _tag, _rcv, seq = record.rdt
        lane.scratchpad.pop((_PEND, record.src_network_id, seq), None)
        return 2.0 * self._sp_cost

    def on_timer(self, lane, record: MessageRecord, start: float) -> float:
        """Retransmit timer fired on the sending lane."""
        _tag, dst, seq, attempt = record.rdt
        sp = lane.scratchpad
        pend = sp.get((_PEND, dst, seq))
        if pend is None:
            # acked (or abandoned) in the meantime — the timer is stale
            return self._sp_cost
        sim = self.sim
        if attempt > self.max_retries:
            del sp[(_PEND, dst, seq)]
            sim.stats.transport_give_ups += 1
            self.give_up_log.append((start, lane.network_id, dst, seq))
            rec_fault = sim._rec_fault
            if rec_fault is not None:
                rec_fault("rdt_give_up", start, (lane.network_id, dst, seq))
            return 2.0 * self._sp_cost
        cycles = self._sp_cost + self._send_cost
        sim.stats.transport_retransmits += 1
        sim.send(pend, start + cycles, lane.node)
        retimer = MessageRecord(
            lane.network_id, 0, TIMER_LABEL, (), None,
            lane.network_id, "ctl",
        )
        retimer.rdt = ("t", dst, seq, attempt + 1)
        delay = self.timeout_cycles * (self.backoff ** min(attempt, 30))
        sim.alarm(start + cycles + delay, retimer)
        return cycles

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------

    def on_data(self, lane, record: MessageRecord, start: float):
        """A tagged data message arrived; returns ``(duplicate, cycles)``.

        ``duplicate=True`` means the payload was already delivered once —
        the dispatcher must suppress the application handler.  An ack is
        sent either way (the first ack may have been lost).
        """
        _tag, src, seq = record.rdt
        sp = lane.scratchpad
        seen_key = (_SEEN, src)
        seen = sp.get(seen_key)
        if seen is None:
            seen = sp[seen_key] = set()
        duplicate = seq in seen
        if not duplicate:
            seen.add(seq)
        sim = self.sim
        stats = sim.stats
        stats.transport_acks += 1
        if duplicate:
            stats.transport_dup_suppressed += 1
        cycles = 2.0 * self._sp_cost + self._send_cost
        ack = MessageRecord(
            src, 0, ACK_LABEL, (), None, lane.network_id, "ctl",
        )
        ack.rdt = ("a", lane.network_id, seq)
        sim.send(ack, start + cycles, lane.node)
        return duplicate, cycles
