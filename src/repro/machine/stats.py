"""Simulation statistics.

Counters mirror what the authors' Fastsim reports (ticks, per-lane
execution cycles, message counts) and what the artifact appendix extracts
from the ``BASIM_PRINT`` / ``perflog.tsv`` logs: the benchmarks compute
simulated seconds as ``ticks / 2 GHz``.

Statistics are **tiered** (see DESIGN.md, "Simulator hot path & stats
tiers"):

* *Scalar* counters (message/DRAM/event/thread totals, ``final_tick``)
  are always maintained — they are single integer adds on the hot path.
* ``busy_cycles_by_lane`` is always *available* but costs nothing per
  event: each :class:`~repro.machine.lane.Lane` already accumulates its
  own busy cycles, and the simulator copies them into this dict when the
  run drains (identical floats — same per-lane accumulation order).
* Nothing here is a per-event histogram.  Per-label event counts come
  from the flight recorder's ``record="full"`` lane spans
  (``repro.observe``), which ``harness.inspect.event_report`` reads.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict

#: host-side split counters: how the *simulator* partitioned handler
#: events between the compiled batch core and the interpreter.  They
#: describe the host's execution strategy, not the simulated machine, so
#: they legitimately differ between machines that do and do not arm
#: record parking (``batch_dispatch=False``, lane stalls, the transport) —
#: cross-mode comparisons use :meth:`SimStats.model_snapshot`.
HOST_SPLIT_KEYS = ("batches_executed", "records_batched", "events_interpreted")


@dataclass
class SimStats:
    """Aggregate counters for one simulation run."""

    messages_sent: int = 0
    messages_local: int = 0
    messages_remote: int = 0
    #: host-injected messages (``src_node=None``: program starts, test
    #: harness sends).  These bypass the modeled fabric and are neither
    #: local nor remote traffic.
    messages_host_injected: int = 0
    #: host-bound messages (results/completions addressed to HOST_NWID).
    #: They leave the modeled machine, so like host-injected traffic they
    #: are outside the local/remote split; together the four message
    #: counters partition ``messages_sent`` exactly.
    messages_host_bound: int = 0
    #: batch-dispatch executions (``batch_dispatch=True``): one per
    #: same-plan run of parked records a flush executed array-at-a-time.
    #: Host-side bookkeeping only — every batched record still counts in
    #: ``events_executed`` individually.
    batches_executed: int = 0
    #: handler events executed through the batch path.  Together with
    #: ``events_interpreted`` these partition handler events exactly:
    #: ``records_batched + events_interpreted == events_executed``.
    records_batched: int = 0
    #: handler events executed one at a time by the interpreter (every
    #: event, when batch dispatch is off or unavailable).
    events_interpreted: int = 0
    dram_reads: int = 0
    dram_writes: int = 0
    dram_bytes_read: int = 0
    dram_bytes_written: int = 0
    dram_remote_accesses: int = 0
    events_executed: int = 0
    threads_created: int = 0
    threads_terminated: int = 0
    # -- injected faults (repro.faults.FaultPlan; all zero without one) --
    faults_messages_dropped: int = 0
    faults_messages_duplicated: int = 0
    faults_messages_delayed: int = 0
    faults_lane_stalls: int = 0
    faults_stall_cycles: float = 0.0
    #: events discarded because their destination node had fail-stopped.
    faults_node_dropped: int = 0
    # -- reliable delivery (repro.faults.ReliableTransport; opt-in) -----
    transport_tracked: int = 0
    transport_retransmits: int = 0
    transport_acks: int = 0
    transport_dup_suppressed: int = 0
    #: sends abandoned after ``max_retries`` retransmits (the watchdog,
    #: not an unbounded retry storm, reports the resulting stall).
    transport_give_ups: int = 0
    busy_cycles_by_lane: Dict[int, float] = field(
        default_factory=lambda: defaultdict(float)
    )
    #: final simulated time in cycles (the makespan).
    final_tick: float = 0.0
    #: whether the last drain ended *quiesced* — event heap empty **and**
    #: no live threads left waiting for events.  ``False`` distinguishes
    #: the silent-hang shape (empty heap, threads still pending: a lost
    #: message or credit) and bounded ``run(until=)`` stops.  Set by the
    #: drain drivers, not merged from shard deltas.
    quiesced: bool = False
    #: live threads remaining after the last drain (0 when quiesced).
    pending_threads: int = 0

    @property
    def total_busy_cycles(self) -> float:
        return sum(self.busy_cycles_by_lane.values())

    def utilization(self, total_lanes: int) -> float:
        """Mean lane utilization over the run's makespan in [0, 1]."""
        if self.final_tick <= 0 or total_lanes <= 0:
            return 0.0
        return self.total_busy_cycles / (self.final_tick * total_lanes)

    def active_lanes(self) -> int:
        """Number of lanes that executed at least one event."""
        return sum(1 for c in self.busy_cycles_by_lane.values() if c > 0)

    def load_imbalance(self) -> float:
        """Max/mean busy-cycle ratio over active lanes (1.0 = perfect)."""
        busy = [c for c in self.busy_cycles_by_lane.values() if c > 0]
        if not busy:
            return 1.0
        mean = sum(busy) / len(busy)
        return max(busy) / mean if mean > 0 else 1.0

    def scalar_snapshot(self) -> Dict[str, float]:
        """The always-on scalar counters as a plain dict.

        The determinism-parity tests compare these across runs; the
        ``busy_cycles_by_lane`` dict is excluded.
        """
        return {
            "messages_sent": self.messages_sent,
            "messages_local": self.messages_local,
            "messages_remote": self.messages_remote,
            "messages_host_injected": self.messages_host_injected,
            "messages_host_bound": self.messages_host_bound,
            "batches_executed": self.batches_executed,
            "records_batched": self.records_batched,
            "events_interpreted": self.events_interpreted,
            "dram_reads": self.dram_reads,
            "dram_writes": self.dram_writes,
            "dram_bytes_read": self.dram_bytes_read,
            "dram_bytes_written": self.dram_bytes_written,
            "dram_remote_accesses": self.dram_remote_accesses,
            "events_executed": self.events_executed,
            "threads_created": self.threads_created,
            "threads_terminated": self.threads_terminated,
            "faults_messages_dropped": self.faults_messages_dropped,
            "faults_messages_duplicated": self.faults_messages_duplicated,
            "faults_messages_delayed": self.faults_messages_delayed,
            "faults_lane_stalls": self.faults_lane_stalls,
            "faults_stall_cycles": self.faults_stall_cycles,
            "faults_node_dropped": self.faults_node_dropped,
            "transport_tracked": self.transport_tracked,
            "transport_retransmits": self.transport_retransmits,
            "transport_acks": self.transport_acks,
            "transport_dup_suppressed": self.transport_dup_suppressed,
            "transport_give_ups": self.transport_give_ups,
            "final_tick": self.final_tick,
        }

    def model_snapshot(self) -> Dict[str, float]:
        """:meth:`scalar_snapshot` minus :data:`HOST_SPLIT_KEYS`.

        Everything the *modeled machine* did — the fingerprint that must
        be bit-identical across batched / interpreted / sharded drains.
        The conservation invariant ``records_batched +
        events_interpreted == events_executed`` ties the dropped keys
        back to a key that stays.
        """
        snap = self.scalar_snapshot()
        for key in HOST_SPLIT_KEYS:
            del snap[key]
        return snap

    def summary(self) -> str:
        return (
            f"ticks={self.final_tick:.0f} events={self.events_executed} "
            f"msgs={self.messages_sent} (remote {self.messages_remote}) "
            f"dram r/w={self.dram_reads}/{self.dram_writes} "
            f"threads +{self.threads_created}/-{self.threads_terminated}"
        )
