"""Deterministic fault plans for the simulated UpDown machine.

A :class:`FaultPlan` describes *which* faults to inject into a run:
message drop / duplication / extra delay on the remote fabric, transient
lane stalls, degraded per-node DRAM bandwidth, and whole-node fail-stop
at a chosen tick.  The machine layer consults the plan at its normal
decision points (``Simulator.issue``, the drain loop, ``MemorySystem``)
and charges every injected fault through the existing cost model — see
``repro.machine.network.Network.fault_delivery``.

Determinism is the design center.  Fault decisions are **content-keyed**:
each draw hashes ``(seed, fault kind, issuing actor, that actor's private
event count)`` through a splitmix64-style integer mixer — never Python's
randomized ``hash()``, never wall-clock, never a shared stateful RNG.
The actor/count pair is exactly the identity the simulator already stamps
into heap keys (``repro.machine.events``): it is assigned entirely at the
point of issue and each actor lives on exactly one shard, so

* the same plan over the same program yields bit-identical fault
  decisions on every run, and
* a faulty run is **shard-count-invariant**: ``shards=1/2/4`` perturb
  the same messages at the same times, so stats, traces, and
  application results stay bit-identical across partitionings.

A shared ``random.Random`` could give neither property — consumption
order differs between sequential and windowed drains.  Delay faults are
therefore the machine's only source of message reordering; latencies are
otherwise fixed.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Tuple

from repro.machine.network import (
    FAULT_DELAY,
    FAULT_DROP,
    FAULT_DUPLICATE,
    FAULT_NONE,
)


class FaultPlanError(ValueError):
    """Raised for malformed fault-plan configuration."""


_MASK64 = (1 << 64) - 1
_INV_2_64 = 1.0 / float(1 << 64)

#: draw domains: distinct fault kinds must decorrelate even when keyed by
#: the same (actor, count) pair — a dropped message and a stalled lane
#: must not share fate just because their counters coincide.
_KIND_MESSAGE = 0x6D73_6721  # "msg!"
_KIND_STALL = 0x7374_616C  # "stal"


def _mix(seed: int, kind: int, a: int, b: int) -> int:
    """splitmix64-style avalanche of a four-part content key → 64 bits."""
    x = (seed ^ (kind * 0x9E3779B97F4A7C15) ^ (a * 0xBF58476D1CE4E5B9)
         ^ (b * 0x94D049BB133111EB)) & _MASK64
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def _check_rate(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise FaultPlanError(f"{name} must be in [0, 1], got {value}")
    return value


class FaultPlan:
    """One deterministic chaos schedule for a simulated run.

    Parameters
    ----------
    seed:
        Base of every content-keyed draw.  Two plans with different seeds
        perturb (statistically) different messages; the same seed always
        perturbs the same ones.
    drop_rate / duplicate_rate / delay_rate:
        Per-remote-message fault probabilities.  At most one message
        fault applies per send (a single draw is partitioned by the
        cumulative rates), so the rates must sum to at most 1.  Only
        lane-to-lane *remote* messages are eligible: local sends never
        enter the fabric, host-injected starts and host-bound results
        cross the host boundary outside the modeled network, and DRAM
        traffic is functional at issue time (its payload is applied when
        the request issues, so "dropping" it would desynchronize the
        functional and timing models — degrade DRAM bandwidth instead).
    delay_cycles:
        Extra delivery delay charged to a delay-faulted message.
    lane_stall_rate / lane_stall_cycles:
        Per-event probability that a lane stalls (pipeline hiccup, IRQ on
        the real machine) for ``lane_stall_cycles`` before dispatching,
        keyed off ``(lane, events_executed)``.  Stall time delays the
        event and everything queued behind it but is not busy time.
    dram_bandwidth_factors:
        ``{node: factor}`` with factor in (0, 1]: the node's DRAM channel
        runs at that fraction of configured bandwidth (degraded stack).
    fail_stop:
        ``{node: tick}``: the node halts at ``tick`` — every message,
        DRAM request, or queued event destined for it at or after that
        time is discarded at delivery.
    """

    def __init__(
        self,
        seed: int = 0,
        drop_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        delay_rate: float = 0.0,
        delay_cycles: float = 2_000.0,
        lane_stall_rate: float = 0.0,
        lane_stall_cycles: float = 500.0,
        dram_bandwidth_factors: Optional[Mapping[int, float]] = None,
        fail_stop: Optional[Mapping[int, float]] = None,
    ) -> None:
        self.seed = int(seed)
        self.drop_rate = _check_rate("drop_rate", drop_rate)
        self.duplicate_rate = _check_rate("duplicate_rate", duplicate_rate)
        self.delay_rate = _check_rate("delay_rate", delay_rate)
        total = self.drop_rate + self.duplicate_rate + self.delay_rate
        if total > 1.0:
            raise FaultPlanError(
                f"drop_rate + duplicate_rate + delay_rate must not exceed "
                f"1.0 (got {total}); one message suffers at most one fault"
            )
        self.delay_cycles = float(delay_cycles)
        if not 0.0 <= self.delay_cycles < math.inf:
            raise FaultPlanError(
                f"delay_cycles must be non-negative and finite, "
                f"got {self.delay_cycles}"
            )
        self.lane_stall_rate = _check_rate("lane_stall_rate", lane_stall_rate)
        self.lane_stall_cycles = float(lane_stall_cycles)
        if not 0.0 <= self.lane_stall_cycles < math.inf:
            raise FaultPlanError(
                f"lane_stall_cycles must be non-negative and finite, "
                f"got {self.lane_stall_cycles}"
            )
        self.dram_bandwidth_factors: Dict[int, float] = dict(
            dram_bandwidth_factors or {}
        )
        for node, factor in self.dram_bandwidth_factors.items():
            if not 0.0 < factor <= 1.0:
                raise FaultPlanError(
                    f"DRAM bandwidth factor for node {node} must be in "
                    f"(0, 1], got {factor}"
                )
        self.fail_stop: Dict[int, float] = {
            int(node): float(tick) for node, tick in (fail_stop or {}).items()
        }
        for node, tick in self.fail_stop.items():
            # ``inf`` is legal (never fails, as in :meth:`dead_ticks`);
            # NaN compares false everywhere and would never fail either.
            if not tick >= 0.0:
                raise FaultPlanError(
                    f"fail-stop tick for node {node} must be a "
                    f"non-negative number, got {tick}"
                )
        # cumulative single-draw thresholds (drop < dup < delay)
        self._t_drop = self.drop_rate
        self._t_dup = self._t_drop + self.duplicate_rate
        self._t_delay = self._t_dup + self.delay_rate
        #: mixed-in seed base, decorrelating nearby integer seeds.
        self._seed_mix = _mix(0, 0x73656564, self.seed, 0)

    # ------------------------------------------------------------------
    # Draws (called by the machine layer)
    # ------------------------------------------------------------------

    @property
    def has_message_faults(self) -> bool:
        return self._t_delay > 0.0

    @property
    def has_lane_stalls(self) -> bool:
        return self.lane_stall_rate > 0.0

    def message_fault(self, actor: int, count: int) -> int:
        """Fault code for the remote message ``actor`` is about to issue.

        ``count`` is the actor's private push counter *before* the send's
        own pushes — the same value the heap key will carry, so the
        decision is a pure function of event content.
        """
        u = _mix(self._seed_mix, _KIND_MESSAGE, actor, count) * _INV_2_64
        if u >= self._t_delay:
            return FAULT_NONE
        if u < self._t_drop:
            return FAULT_DROP
        if u < self._t_dup:
            return FAULT_DUPLICATE
        return FAULT_DELAY

    def lane_stall(self, network_id: int, event_index: int) -> float:
        """Stall cycles (possibly 0) before a lane's ``event_index``-th
        dispatch.  Keyed off per-lane state, so shard-invariant."""
        u = _mix(self._seed_mix, _KIND_STALL, network_id, event_index)
        if u * _INV_2_64 < self.lane_stall_rate:
            return self.lane_stall_cycles
        return 0.0

    # ------------------------------------------------------------------
    # Precomputed per-node tables (built once at simulator construction)
    # ------------------------------------------------------------------

    def dead_ticks(self, nodes: int) -> List[float]:
        """Per-node fail-stop tick (``inf`` = never dies)."""
        ticks = [math.inf] * nodes
        for node, tick in self.fail_stop.items():
            if not 0 <= node < nodes:
                raise FaultPlanError(
                    f"fail-stop node {node} out of range [0, {nodes})"
                )
            ticks[node] = tick
        return ticks

    def dram_factors(self, nodes: int) -> List[float]:
        """Per-node DRAM bandwidth factor (1.0 = healthy)."""
        factors = [1.0] * nodes
        for node, factor in self.dram_bandwidth_factors.items():
            if not 0 <= node < nodes:
                raise FaultPlanError(
                    f"degraded-DRAM node {node} out of range [0, {nodes})"
                )
            factors[node] = factor
        return factors

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def describe(self) -> Dict[str, object]:
        """Plain-data summary (chaos harness logs, trace sidecars)."""
        return {
            "seed": self.seed,
            "drop_rate": self.drop_rate,
            "duplicate_rate": self.duplicate_rate,
            "delay_rate": self.delay_rate,
            "delay_cycles": self.delay_cycles,
            "lane_stall_rate": self.lane_stall_rate,
            "lane_stall_cycles": self.lane_stall_cycles,
            "dram_bandwidth_factors": dict(self.dram_bandwidth_factors),
            "fail_stop": dict(self.fail_stop),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        knobs = ", ".join(
            f"{k}={v!r}" for k, v in self.describe().items()
            if v not in (0.0, {}, ())
        )
        return f"FaultPlan({knobs})"
