"""Machine configuration for the simulated UpDown system.

The full UpDown machine (paper §3) has 16,384 nodes, 32 accelerators per
node, and 64 lanes per accelerator — 33 M lanes.  A functional Python
simulator cannot instantiate that many lanes, so :class:`MachineConfig`
makes every dimension a parameter.  Benchmarks use reduced lanes-per-node
counts and record the scaling substitution in DESIGN.md; the *ratios*
between compute, message, and memory costs — which produce the paper's
scaling shapes — are preserved.

NetworkID layout
----------------
A lane is addressed by a flat integer ``networkID``::

    networkID = node * lanes_per_node + accel * lanes_per_accel + lane

matching the paper's "computation location naming" (§2.3): applications
compute networkIDs directly to control computation binding.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .costs import CLOCK_HZ, DEFAULT_COSTS, CostTable


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class MachineConfig:
    """Dimensions and timing parameters of a simulated UpDown machine.

    Parameters mirror the paper's §3 description:

    * ``nodes`` — number of UpDown nodes (paper machine: 16,384).
    * ``accels_per_node`` — accelerators per node (paper: 32).
    * ``lanes_per_accel`` — lanes per accelerator (paper: 64).
    * ``clock_hz`` — lane clock (paper: 2 GHz).
    * ``local_msg_latency_cycles`` — intra-node message latency.
    * ``remote_msg_latency_cycles`` — cross-node message latency
      (paper: 0.5 µs = 1000 cycles at 2 GHz).
    * ``dram_latency_cycles`` — local DRAM access latency; remote accesses
      take ``remote_dram_latency_ratio`` times longer (paper §3.2: 7:1).
    * ``node_dram_bytes_per_cycle`` — per-node HBM bandwidth (paper:
      9.4 TB/s per node ≈ 4700 B/cycle at 2 GHz; scaled machines scale this
      down with the lane count so per-lane bandwidth is realistic).
    * ``remote_dram_bandwidth_ratio`` — fraction of local bandwidth
      available to remote requesters (paper §3.2: 3:1 ⇒ 1/3).
    * ``node_injection_bytes_per_cycle`` — network injection bandwidth per
      node (paper: 4 TB/s ≈ 2000 B/cycle).
    * ``message_bytes`` — wire size of one event message (paper: 64 B).
    """

    nodes: int = 1
    accels_per_node: int = 32
    lanes_per_accel: int = 64
    clock_hz: int = CLOCK_HZ
    local_msg_latency_cycles: int = 100
    remote_msg_latency_cycles: int = 1000
    dram_latency_cycles: int = 200
    remote_dram_latency_ratio: int = 7
    node_dram_bytes_per_cycle: float = 4700.0
    remote_dram_bandwidth_ratio: float = 1.0 / 3.0
    node_injection_bytes_per_cycle: float = 2000.0
    message_bytes: int = 64
    #: minimum DRAMmalloc block size the translation hardware accepts
    #: (paper §2.4: 4 KB; scaled bench machines lower it — DESIGN.md)
    min_dram_block_bytes: int = 4096
    #: execute batch-safe same-label KVMSR reduce records array-at-a-time
    #: instead of one interpreter pass each (a host-side simulator
    #: optimization — simulated results are bit-identical; DESIGN.md
    #: "Event IR & batched dispatch").  Only reduce classes that declare
    #: ``intrinsic_only = True`` are ever lowered.  A plan the IR cannot
    #: prove batch-safe, or lowered on a machine with lane stalls,
    #: fail-stop or the transport, refuses and names why in
    #: ``batch_report()``; its label interprets every event.
    #: ``False`` interprets every event: the independent reference that
    #: differential tests check batched runs against.
    batch_dispatch: bool = True
    costs: CostTable = field(default_factory=lambda: DEFAULT_COSTS)

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError("machine must have at least one node")
        if self.accels_per_node < 1 or self.lanes_per_accel < 1:
            raise ValueError("accelerators and lanes must be positive")
        if self.clock_hz <= 0:
            raise ValueError("clock must be positive")
        if self.remote_dram_latency_ratio < 1:
            raise ValueError("remote DRAM latency ratio must be >= 1")
        if not (0.0 < self.remote_dram_bandwidth_ratio <= 1.0):
            raise ValueError("remote DRAM bandwidth ratio must be in (0, 1]")
        # The injection channels add message_bytes to an exact int byte
        # total on every remote send; a float would silently turn it into
        # a lossy float accumulator, a non-positive size would run on
        # with negative traffic.
        mb = self.message_bytes
        if not isinstance(mb, int) or isinstance(mb, bool) or mb <= 0:
            raise ValueError(
                f"message_bytes must be a positive int, got {mb!r}"
            )
        self.costs.validate()

    # ------------------------------------------------------------------
    # Topology arithmetic
    # ------------------------------------------------------------------

    @property
    def lanes_per_node(self) -> int:
        """Lanes on one node (paper machine: 2048)."""
        return self.accels_per_node * self.lanes_per_accel

    @property
    def total_lanes(self) -> int:
        """Total lanes in the machine (paper machine: ~33 M)."""
        return self.nodes * self.lanes_per_node

    @property
    def total_accels(self) -> int:
        return self.nodes * self.accels_per_node

    def node_of(self, network_id: int) -> int:
        """The node hosting ``network_id``."""
        self._check_nwid(network_id)
        return network_id // self.lanes_per_node

    def accel_of(self, network_id: int) -> int:
        """The machine-global accelerator index hosting ``network_id``."""
        self._check_nwid(network_id)
        return network_id // self.lanes_per_accel

    def lane_in_node(self, network_id: int) -> int:
        """Lane index within its node."""
        self._check_nwid(network_id)
        return network_id % self.lanes_per_node

    def network_id(self, node: int, accel: int, lane: int) -> int:
        """Compose a flat networkID from (node, accel-in-node, lane-in-accel)."""
        if not (0 <= node < self.nodes):
            raise ValueError(f"node {node} out of range [0, {self.nodes})")
        if not (0 <= accel < self.accels_per_node):
            raise ValueError(f"accel {accel} out of range")
        if not (0 <= lane < self.lanes_per_accel):
            raise ValueError(f"lane {lane} out of range")
        return node * self.lanes_per_node + accel * self.lanes_per_accel + lane

    def first_lane_of_node(self, node: int) -> int:
        if not (0 <= node < self.nodes):
            raise ValueError(f"node {node} out of range [0, {self.nodes})")
        return node * self.lanes_per_node

    def first_lane_of_accel(self, accel: int) -> int:
        """First lane of machine-global accelerator ``accel``."""
        if not (0 <= accel < self.total_accels):
            raise ValueError(f"accel {accel} out of range")
        return accel * self.lanes_per_accel

    def _check_nwid(self, network_id: int) -> None:
        if not (0 <= network_id < self.total_lanes):
            raise ValueError(
                f"networkID {network_id} out of range [0, {self.total_lanes})"
            )

    # ------------------------------------------------------------------
    # Time conversion
    # ------------------------------------------------------------------

    def cycles_to_seconds(self, cycles: float) -> float:
        """Convert simulated lane cycles to simulated seconds
        (``time[s] = ticks / 2e9`` per the artifact appendix)."""
        return cycles / self.clock_hz

    @property
    def remote_dram_transit_cycles(self) -> float:
        """Per-direction fabric transit for a remote split-phase DRAM hop.

        Derived from ``remote_dram_latency_ratio`` so the knob is what
        actually sets the remote:local latency ratio (paper §3.2's 7:1):
        an unloaded remote access costs ``dram_latency_cycles`` at the
        device plus one transit each way, so a round trip of
        ``(ratio - 1) * dram_latency_cycles`` lands the total at
        ``ratio * dram_latency_cycles``.  Queueing (injection and DRAM
        channel occupancy) adds on top under load — that is congestion,
        not base latency.
        """
        return (
            (self.remote_dram_latency_ratio - 1)
            * self.dram_latency_cycles
            / 2.0
        )

    @property
    def default_ack_timeout_cycles(self) -> float:
        """Default retransmit timeout for reliable delivery.

        Four times the remote round trip (data out + ack back, each
        paying ``remote_msg_latency_cycles`` of base latency): the slack
        over the unloaded round trip absorbs injection-queue congestion,
        which on the scaled bench machines routinely adds several
        thousand cycles — with a tight (2x) timeout most retransmits are
        spurious duplicates of messages already in flight.  Recovery of
        a genuinely dropped message costs one timeout; lower it through
        ``repro.faults.ReliabilityConfig`` when modeling latency-
        sensitive recovery.
        """
        return 8.0 * float(self.remote_msg_latency_cycles)

    @property
    def conservative_lookahead_cycles(self) -> float:
        """Safe epoch window for conservative parallel execution.

        No interaction between two *different* nodes can take effect
        sooner than this many cycles after it is issued: cross-node
        messages pay ``remote_msg_latency_cycles`` of base latency
        (injection queueing only adds to that), and each direction of a
        remote split-phase DRAM access pays
        ``remote_dram_transit_cycles`` of fabric transit.  Intra-node
        traffic never crosses a shard boundary (shards partition whole
        nodes), so the minimum of the two cross-node constants bounds how
        far apart shards can drift while still seeing every inbound
        boundary event in time — the classic conservative-lookahead
        argument.  Zero (``remote_dram_latency_ratio == 1``) means the
        machine cannot be sharded.
        """
        return min(
            float(self.remote_msg_latency_cycles),
            self.remote_dram_transit_cycles,
        )

    def scaled(self, nodes: int) -> "MachineConfig":
        """A copy of this configuration with a different node count.

        Used by strong-scaling sweeps: everything but the node count is
        held fixed, exactly like the paper's Figure 9 experiments.
        """
        return replace(self, nodes=nodes)


def paper_machine(nodes: int = 16384) -> MachineConfig:
    """The full-scale machine described in paper §3 (for documentation and
    topology arithmetic tests; far too large to simulate event-by-event)."""
    return MachineConfig(nodes=nodes, accels_per_node=32, lanes_per_accel=64)


def bench_machine(
    nodes: int = 1,
    accels_per_node: int = 1,
    lanes_per_accel: int = 2,
    bandwidth_boost: float = 4.0,
    **overrides,
) -> MachineConfig:
    """A scaled-down machine used by the benchmark sweeps.

    Each simulated node carries a small slice of a real node's 2048 lanes
    (default 2), keeping a 256-node sweep at a few hundred simulated lanes
    — what a functional Python DES can execute in seconds.  Per-node memory
    and injection bandwidth scale by the same lane-reduction factor so the
    compute:bandwidth balance of the paper machine is preserved.

    ``bandwidth_boost`` compensates for the functional model's coarser
    event granularity (one modeled event covers several real-machine
    instruction bursts, so per-event message/DRAM traffic is denser than
    per-instruction traffic on the real machine).  The default of 4 was
    calibrated so PageRank sits compute-bound at one node and
    bandwidth-sensitive under the Figure 12 placement sweep, matching the
    paper's regime; see DESIGN.md.
    """
    scale = (accels_per_node * lanes_per_accel) / (32 * 64) * bandwidth_boost
    defaults = dict(
        node_dram_bytes_per_cycle=4700.0 * scale,
        node_injection_bytes_per_cycle=2000.0 * scale,
        # scaled graphs have scaled hub sizes; scale the placement block
        # floor so hot data still spans many blocks (DESIGN.md)
        min_dram_block_bytes=512,
    )
    defaults.update(overrides)
    return MachineConfig(
        nodes=nodes,
        accels_per_node=accels_per_node,
        lanes_per_accel=lanes_per_accel,
        **defaults,
    )
