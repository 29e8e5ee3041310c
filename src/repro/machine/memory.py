"""Per-node DRAM (HBM3e) capacity/latency model and lane scratchpads.

Each UpDown node carries 8 HBM3e stacks delivering ~9.4 TB/s (paper §3).
Following Fastsim's streamlined memory model, a node's memory is one
serially-occupied channel:

* a request arriving at ``t`` starts service at ``max(t, channel_free)``;
* service occupies the channel for ``nbytes / bandwidth`` cycles;
* the response is ready ``access latency`` after service starts;
* remote requesters get a reduced bandwidth share
  (``remote_dram_bandwidth_ratio``, paper §3.2's 3:1 local:remote) and pay
  the network round trip on top (yielding the paper's ~7:1 latency ratio).

Scratchpad memory (64 KB per lane, poolable within an accelerator) is
modeled as a per-lane key/value store with single-cycle access charged by
the UDWeave context; capacity accounting lives in
:mod:`repro.memmodel.spmalloc`.
"""

from __future__ import annotations

from typing import Dict

from .config import MachineConfig


class MemoryChannel:
    """One node's DRAM channel."""

    __slots__ = ("free_at", "bytes_served", "requests")

    def __init__(self) -> None:
        self.free_at: float = 0.0
        self.bytes_served: int = 0
        self.requests: int = 0

    def service(
        self,
        t_arrive: float,
        nbytes: int,
        bytes_per_cycle: float,
        latency_cycles: float,
        recorder=None,
        node: int = 0,
    ) -> float:
        """Occupy the channel for one request — the only place the
        timing arithmetic lives.  Service starts at ``max(t_arrive,
        free_at)`` and occupies the channel (``free_at``) for
        ``nbytes / bytes_per_cycle``; returns the response-ready time,
        ``latency_cycles`` plus that occupancy after the start."""
        free_at = self.free_at
        start = free_at if free_at > t_arrive else t_arrive
        occupancy = nbytes / bytes_per_cycle
        self.free_at = start + occupancy
        self.bytes_served += nbytes
        self.requests += 1
        if recorder is not None:
            recorder.dram_sample(
                node, start, start - t_arrive, occupancy, nbytes
            )
        return start + latency_cycles + occupancy


class MemorySystem:
    """All node memory channels of the machine.

    Two fidelity levels, mirroring the paper's Fastsim/Gem5sim pair
    (§5.1): the default *fast* model serializes each node's memory through
    one channel at the node's aggregate bandwidth; the *detailed* model
    (``banks_per_node > 1``) splits the node into independent HBM
    pseudo-channels selected by address, each carrying an equal bandwidth
    share — closer to how 8 HBM3e stacks actually behave, at more
    simulation cost.  ``tests/integration/test_calibration.py`` checks the
    two agree on balanced traffic, the same cross-check the authors ran
    between their simulators.
    """

    #: detailed-mode bank interleave granularity (bytes)
    BANK_INTERLEAVE = 256

    def __init__(
        self,
        config: MachineConfig,
        banks_per_node: int = 1,
        recorder=None,
        faults=None,
    ) -> None:
        if banks_per_node < 1:
            raise ValueError("need at least one bank per node")
        self.config = config
        self.banks_per_node = banks_per_node
        self._latency = float(config.dram_latency_cycles)
        self._local_bw = config.node_dram_bytes_per_cycle / banks_per_node
        self._remote_bw = self._local_bw * config.remote_dram_bandwidth_ratio
        self._channels: Dict[tuple, MemoryChannel] = {}
        #: flight recorder for channel telemetry, or None (the off tier).
        self.recorder = recorder
        #: per-node bandwidth degradation factors from a fault plan
        #: (``repro.faults.FaultPlan.dram_bandwidth_factors``), or None —
        #: the healthy machine costs one pointer test per access.
        self._dram_factors = (
            faults.dram_factors(config.nodes)
            if faults is not None and faults.dram_bandwidth_factors
            else None
        )

    def channel(self, node: int, bank: int = 0) -> MemoryChannel:
        key = (node, bank)
        ch = self._channels.get(key)
        if ch is None:
            ch = self._channels[key] = MemoryChannel()
        return ch

    def _bank_of(self, local_offset: int) -> int:
        return (local_offset // self.BANK_INTERLEAVE) % self.banks_per_node

    def access(
        self,
        t_arrive: float,
        requester_node: int,
        memory_node: int,
        nbytes: int,
        local_offset: int = 0,
    ) -> float:
        """Service an access at ``memory_node`` issued from ``requester_node``.

        ``t_arrive`` is the time the request reaches the memory controller
        (the caller adds network latency for remote requests);
        ``local_offset`` selects the bank in detailed mode.  Returns the
        response-ready time (:meth:`MemoryChannel.service`).
        """
        bw = (
            self._local_bw if requester_node == memory_node
            else self._remote_bw
        )
        factors = self._dram_factors
        if factors is not None:
            bw *= factors[memory_node]
        key = (
            memory_node,
            0 if self.banks_per_node == 1 else self._bank_of(local_offset),
        )
        ch = self._channels.get(key)
        if ch is None:
            ch = self._channels[key] = MemoryChannel()
        return ch.service(
            t_arrive, nbytes, bw, self._latency, self.recorder, memory_node
        )

    def bytes_served(self, node: int) -> int:
        return sum(
            ch.bytes_served
            for (n, _b), ch in self._channels.items()
            if n == node
        )
