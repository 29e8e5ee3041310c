"""System network model.

The UpDown machine uses a diameter-3 PolarStar topology (paper Figure 6)
with 0.5 µs cross-node latency, 4 TB/s per-node injection bandwidth, and
32 PB/s bisection bandwidth.  Following the authors' Fastsim, we use a
*streamlined* latency/capacity model rather than a flit-level one:

* intra-node messages see a fixed (small) latency;
* cross-node messages see the 0.5 µs latency — diameter-3 means latency is
  effectively distance-independent, which this model captures by charging a
  single remote constant;
* each node's injection port is a serially-occupied channel: back-to-back
  sends queue behind each other at ``message_bytes / injection_bw``
  occupancy, modeling injection-bandwidth saturation.  That rule lives
  here only — :meth:`Network.deliver_time` (messages) and
  :meth:`Network.dram_hop` (DRAM legs) are the sole admission sites, so
  every caller (``Simulator.issue`` for every message, sent or parked;
  split-phase DRAM) pays the same arithmetic and recorder samples;
* latencies are fixed, as in Fastsim.  Message reordering comes only from
  deterministic *fault* perturbations (drop / duplicate / extra delay,
  from a ``repro.faults.FaultPlan``), applied here too — see
  :meth:`Network.fault_delivery` — so every faulty delivery is still
  charged through the same injection-channel cost model, and its
  content-keyed draws keep results identical across shard counts.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .config import MachineConfig

#: message-fault codes a ``repro.faults.FaultPlan`` hands the machine.
#: Defined here (the bottom of the dependency stack) because both the
#: fault plan and the simulator's send path speak them.
FAULT_NONE: int = 0
FAULT_DROP: int = 1
FAULT_DUPLICATE: int = 2
FAULT_DELAY: int = 3


class InjectionChannel:
    """State of one serially-occupied port: transfers queue behind one
    another.  Only :meth:`Network.deliver_time` and
    :meth:`Network.dram_hop` admit into it.

    ``bytes_injected`` is an exact Python int — every admitted size is an
    int (``MachineConfig`` validates ``message_bytes``; DRAM block sizes
    are ints) — so the total never loses whole bytes past 2**53 the way
    a float accumulator would on a long chaos soak.
    """

    __slots__ = ("free_at", "bytes_injected")

    def __init__(self) -> None:
        self.free_at: float = 0.0
        self.bytes_injected: int = 0


class Network:
    """Latency + injection-bandwidth model of the PolarStar interconnect."""

    def __init__(
        self,
        config: MachineConfig,
        recorder=None,
    ) -> None:
        self.config = config
        self._injection: Dict[int, InjectionChannel] = {}
        #: reply virtual channel per node (split-phase DRAM responses).
        self._reply: Dict[int, InjectionChannel] = {}
        # hot-path constants: deliver_time() runs once or twice per message
        self._local_base = float(config.local_msg_latency_cycles)
        self._remote_base = float(config.remote_msg_latency_cycles)
        self._injection_bw = config.node_injection_bytes_per_cycle
        #: occupancy (``nbytes / injection_bw``) memo: transfer sizes
        #: come from a handful of constants (message_bytes, DRAM block
        #: sizes), so the division and the bandwidth attribute load are
        #: paid once per distinct size instead of once per send.
        self._occupancy: Dict[int, float] = {}
        #: flight recorder for channel telemetry, or None (the off tier).
        self.recorder = recorder

    def injection_backlog(self, node: int, t: float) -> float:
        """Cycles a transfer arriving at ``t`` would wait to enter
        ``node``'s injection port — zero when the channel is free.

        The admission-control signal: ``repro.service`` reads this at
        request-admission time to shed or defer under backpressure
        instead of queueing unboundedly.  Pure read — no channel state
        changes — so sampling it between bounded drains is safe and
        bit-identical across shard counts.
        """
        ch = self._injection.get(node)
        if ch is None:
            return 0.0
        backlog = ch.free_at - t
        return backlog if backlog > 0.0 else 0.0

    def deliver_time(
        self,
        t_issue: float,
        src_node: Optional[int],
        dst_node: int,
        nbytes: int,
    ) -> float:
        """Time at which a message issued at ``t_issue`` arrives.

        ``src_node=None`` models host injection (program start), which
        bypasses the modeled fabric.
        """
        if src_node is None:
            return t_issue
        if src_node == dst_node:
            # Intra-node messages ride the on-chip network; no injection
            # port.
            return t_issue + self._local_base
        ch = self._injection.get(src_node)
        if ch is None:
            ch = self._injection[src_node] = InjectionChannel()
        occ = self._occupancy
        occupancy = occ.get(nbytes)
        if occupancy is None:
            occupancy = occ[nbytes] = nbytes / self._injection_bw
        free_at = ch.free_at
        start = t_issue if t_issue > free_at else free_at
        departed = ch.free_at = start + occupancy
        ch.bytes_injected += nbytes
        recorder = self.recorder
        if recorder is not None:
            recorder.inj_sample(
                src_node, start, start - t_issue, occupancy, nbytes
            )
        return departed + self._remote_base

    def dram_hop(
        self,
        t_issue: float,
        src_node: int,
        dst_node: int,
        nbytes: int,
        transit_cycles: float,
        reply: bool = False,
    ) -> float:
        """One direction of a remote split-phase DRAM transfer.

        Like :meth:`deliver_time`, the transfer occupies an injection
        channel at the source node (DRAM-heavy apps saturate injection
        exactly as message-heavy ones do), then rides the fabric for
        ``transit_cycles`` — the knob-derived
        :attr:`MachineConfig.remote_dram_transit_cycles`.  Intra-node
        hops are free (the caller charges device latency).

        ``reply=True`` selects the node's *reply* virtual channel, which
        responses and write completions ride — the split request/reply
        virtual-network separation real interconnects use against
        protocol deadlock.  It also keeps each channel's admissions
        time-ordered: requests are admitted at issue time, replies at
        (future) device-response time, and the serially-occupied
        ``free_at`` model is only accurate under monotone admission times
        — mixing the two frames in one queue would block present-time
        traffic behind reservations that have not physically started.
        """
        if src_node == dst_node:
            return t_issue
        chans = self._reply if reply else self._injection
        ch = chans.get(src_node)
        if ch is None:
            ch = chans[src_node] = InjectionChannel()
        occ = self._occupancy
        occupancy = occ.get(nbytes)
        if occupancy is None:
            occupancy = occ[nbytes] = nbytes / self._injection_bw
        free_at = ch.free_at
        start = t_issue if t_issue > free_at else free_at
        departed = ch.free_at = start + occupancy
        ch.bytes_injected += nbytes
        recorder = self.recorder
        if recorder is not None:
            recorder.inj_sample(
                src_node, start, start - t_issue, occupancy, nbytes
            )
        return departed + transit_cycles

    # ------------------------------------------------------------------
    # Fault perturbations (repro.faults)
    # ------------------------------------------------------------------

    def fault_delivery(
        self,
        code: int,
        t_issue: float,
        src_node: int,
        dst_node: int,
        nbytes: int,
        extra_delay_cycles: float,
    ) -> Tuple[Optional[float], Optional[float]]:
        """Delivery times for a remote message the fault plan perturbed.

        Returns ``(t_deliver, t_dup)``:

        * ``FAULT_DROP`` → ``(None, None)``.  The message still occupies
          the source injection port — the bytes left the node before the
          fabric lost them — so a drop is never cheaper than a delivery.
        * ``FAULT_DUPLICATE`` → both times set: the spurious copy is a
          second full transfer, re-admitted through the injection channel
          behind the original (duplicates consume real bandwidth).
        * ``FAULT_DELAY`` → ``(t_deliver + extra_delay_cycles, None)``:
          the message took a congested path; the extra cycles ride on top
          of the normal cost-model delivery time.

        Faults only ever *delay or remove* deliveries relative to the
        fault-free schedule — never accelerate them — which is what keeps
        the conservative-lookahead window bound of sharded execution
        valid under any fault plan.
        """
        t_deliver = self.deliver_time(t_issue, src_node, dst_node, nbytes)
        if code == FAULT_DROP:
            return None, None
        if code == FAULT_DUPLICATE:
            t_dup = self.deliver_time(t_issue, src_node, dst_node, nbytes)
            return t_deliver, t_dup
        return t_deliver + extra_delay_cycles, None

    def injected_bytes(self, node: int) -> int:
        """Bytes a node put on the fabric (request + reply channels)."""
        total = 0
        ch = self._injection.get(node)
        if ch is not None:
            total += ch.bytes_injected
        ch = self._reply.get(node)
        if ch is not None:
            total += ch.bytes_injected
        return total
