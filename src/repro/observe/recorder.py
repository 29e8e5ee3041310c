"""The flight recorder proper: what the machine layer feeds during a run.

The recorder is deliberately ignorant of the simulator's object model —
it receives plain numbers from a handful of hook sites (lane dispatch,
``InjectionChannel`` admission, ``MemoryChannel`` service, message send,
KVMSR phase transitions) and accumulates them into exportable structures.
Hook sites hold ``None`` when a tier is off, so a disabled recorder costs
one pointer test per event, the same discipline as ``detailed_stats``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, Union

from .histogram import LogHistogram

#: recording tiers, cheapest first; each includes the ones before it.
TIERS = ("phases", "histograms", "full")

#: message-latency taxonomy keys (matching SimStats' message counters).
MESSAGE_KINDS = ("local", "remote", "host_injected", "host_bound")


class RecorderError(ValueError):
    """Raised for invalid recorder configuration."""


class ChannelStats:
    """Per-node accumulator for one serially-occupied channel."""

    __slots__ = (
        "admits", "bytes", "wait_sum", "occupancy_sum", "wait_max",
        "wait_hist",
    )

    def __init__(self) -> None:
        self.admits: int = 0
        self.bytes: int = 0
        self.wait_sum: float = 0.0
        self.occupancy_sum: float = 0.0
        self.wait_max: float = 0.0
        #: per-node queue-wait distribution — backpressure thresholds are
        #: tuned off its p50/p99 (``harness.inspect.occupancy_report``).
        self.wait_hist: LogHistogram = LogHistogram()

    @property
    def mean_wait(self) -> float:
        return self.wait_sum / self.admits if self.admits else 0.0


class FlightRecorder:
    """Tiered telemetry sink for one simulation run.

    Build one, hand it to :class:`~repro.udweave.runtime.UpDownRuntime`
    (or a run helper's ``record=`` flag), run, then export with
    :func:`~repro.observe.trace.chrome_trace` /
    :func:`~repro.observe.perflog.write_perflog` or inspect the fields
    directly.  Recording is observation-only: a recorded run produces
    bit-identical simulation results to an unrecorded one.
    """

    def __init__(
        self,
        tier: str = "full",
        max_lane_spans: int = 1_000_000,
        max_channel_events: int = 200_000,
        max_fault_events: int = 100_000,
    ) -> None:
        if tier not in TIERS:
            raise RecorderError(
                f"unknown recorder tier {tier!r}; pick one of {TIERS}"
            )
        self.tier = tier
        #: tier gates, pre-computed so hook installers read plain bools.
        self.record_phases = True
        self.record_channels = tier in ("histograms", "full")
        self.record_messages = self.record_channels
        self.record_lane_spans = tier == "full"
        self.record_channel_events = tier == "full"
        #: faults are rare and diagnostic — recorded at every tier.
        self.record_faults = True

        # -- lane timeline (full tier) --------------------------------
        #: (network_id, start, end, label) per executed event, capped.
        self.lane_spans: List[Tuple[int, float, float, str]] = []
        self.lane_spans_dropped: int = 0
        self._max_lane_spans = max_lane_spans

        # -- channel telemetry (histograms tier) ----------------------
        self.inj_by_node: Dict[int, ChannelStats] = {}
        self.dram_by_node: Dict[int, ChannelStats] = {}
        self.inj_wait = LogHistogram()
        self.dram_wait = LogHistogram()
        #: (node, start, wait, occupancy, nbytes) admissions (full tier).
        self.inj_events: List[Tuple[int, float, float, float, int]] = []
        self.dram_events: List[Tuple[int, float, float, float, int]] = []
        self.channel_events_dropped: int = 0
        self._max_channel_events = max_channel_events

        # -- message latency (histograms tier) ------------------------
        self.msg_latency: Dict[str, LogHistogram] = {
            kind: LogHistogram() for kind in MESSAGE_KINDS
        }

        # -- batched dispatch (histograms tier; batch_dispatch runs) --
        #: batch-size histogram: one sample per executed parked-record
        #: run (``repro.udweave.ir``).
        self.batch_sizes = LogHistogram()
        #: batches executed by the flush paths.
        self.batches_recorded: int = 0
        #: records those batches carried (sum of the sampled sizes).
        self.batch_records: int = 0

        # -- KVMSR phases (phases tier) -------------------------------
        #: (job, phase, start, end) spans, closed.
        self.phase_spans: List[Tuple[str, str, float, float]] = []
        #: (name, job, t) instant markers (quiescence polls, ...).
        self.marks: List[Tuple[str, Optional[str], float]] = []
        self._open_phases: Dict[Tuple[str, str], float] = {}

        # -- injected faults (every tier) -----------------------------
        #: per-kind totals (msg_drop, msg_duplicate, msg_delay,
        #: lane_stall, node_drop, rdt_give_up).
        self.fault_counts: Dict[str, int] = {}
        #: (kind, t, detail) per injected fault, capped.
        self.fault_events: List[Tuple[str, float, tuple]] = []
        self.fault_events_dropped: int = 0
        self._max_fault_events = max_fault_events

    # ------------------------------------------------------------------
    # Hot hooks (the machine layer calls these; keep them flat)
    # ------------------------------------------------------------------

    def lane_span(self, nwid: int, start: float, end: float, label: str) -> None:
        """One executed event on a lane (full tier)."""
        spans = self.lane_spans
        if len(spans) < self._max_lane_spans:
            spans.append((nwid, start, end, label))
        else:
            self.lane_spans_dropped += 1

    def message(self, kind: str, latency: float) -> None:
        """One message put on the wire; ``kind`` per :data:`MESSAGE_KINDS`."""
        self.msg_latency[kind].add(latency)

    def batch(self, n_records: int) -> None:
        """One batched-dispatch execution of parked records (batch size)."""
        self.batch_sizes.add(n_records)
        self.batches_recorded += 1
        self.batch_records += n_records

    def _channel_sample(
        self,
        by_node: Dict[int, ChannelStats],
        wait_hist: LogHistogram,
        events: List[Tuple[int, float, float, float, int]],
        node: int,
        start: float,
        wait: float,
        occupancy: float,
        nbytes: int,
    ) -> None:
        ch = by_node.get(node)
        if ch is None:
            ch = by_node[node] = ChannelStats()
        ch.admits += 1
        ch.bytes += nbytes
        ch.wait_sum += wait
        ch.occupancy_sum += occupancy
        if wait > ch.wait_max:
            ch.wait_max = wait
        ch.wait_hist.add(wait)
        wait_hist.add(wait)
        if self.record_channel_events:
            if len(events) < self._max_channel_events:
                events.append((node, start, wait, occupancy, nbytes))
            else:
                self.channel_events_dropped += 1

    def inj_sample(
        self, node: int, start: float, wait: float, occupancy: float, nbytes: int
    ) -> None:
        """One admission into a node's network-injection channel."""
        self._channel_sample(
            self.inj_by_node, self.inj_wait, self.inj_events,
            node, start, wait, occupancy, nbytes,
        )

    def dram_sample(
        self, node: int, start: float, wait: float, occupancy: float, nbytes: int
    ) -> None:
        """One serviced request on a node's DRAM channel."""
        self._channel_sample(
            self.dram_by_node, self.dram_wait, self.dram_events,
            node, start, wait, occupancy, nbytes,
        )

    # ------------------------------------------------------------------
    # Phase spans (KVMSR engine)
    # ------------------------------------------------------------------

    def phase_begin(self, job: str, phase: str, t: float) -> None:
        """Open a ``phase`` span for ``job`` at simulated time ``t``.

        Re-opening an already-open (job, phase) pair closes the previous
        span first — relaunched jobs (PageRank iterations) produce one
        span per epoch.
        """
        key = (job, phase)
        prev = self._open_phases.pop(key, None)
        if prev is not None:
            self.phase_spans.append((job, phase, prev, t))
        self._open_phases[key] = t

    def phase_end(self, job: str, phase: str, t: float) -> None:
        """Close a span; a no-op if the (job, phase) pair is not open."""
        start = self._open_phases.pop((job, phase), None)
        if start is not None:
            self.phase_spans.append((job, phase, start, t))

    def mark(self, name: str, t: float, job: Optional[str] = None) -> None:
        """Record an instant marker (e.g. one quiescence poll round)."""
        self.marks.append((name, job, t))

    def fault(self, kind: str, t: float, detail: tuple = ()) -> None:
        """One injected fault taking effect at simulated time ``t``.

        ``detail`` is kind-specific plain data (networkIDs, nodes, stall
        cycles) for the fault trace; counts are unconditional, the event
        list is capped like the other timelines.
        """
        self.fault_counts[kind] = self.fault_counts.get(kind, 0) + 1
        if len(self.fault_events) < self._max_fault_events:
            self.fault_events.append((kind, t, detail))
        else:
            self.fault_events_dropped += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def phases_of(self, job: str) -> List[Tuple[str, float, float]]:
        """Closed (phase, start, end) spans of one job, in time order."""
        return sorted(
            (p, s, e) for j, p, s, e in self.phase_spans if j == job
        )

    def phase_names(self) -> List[str]:
        return sorted({p for _j, p, _s, _e in self.phase_spans})

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlightRecorder(tier={self.tier!r}, "
            f"lane_spans={len(self.lane_spans)}, "
            f"phases={len(self.phase_spans)})"
        )


RecorderSpec = Union[None, bool, str, FlightRecorder]


def make_recorder(spec: RecorderSpec) -> Optional[FlightRecorder]:
    """Normalize a ``record=`` argument into a recorder (or ``None``).

    ``None``/``False`` → no recording; ``True`` → the full tier; a tier
    name → that tier; an existing :class:`FlightRecorder` → itself.
    """
    if spec is None or spec is False:
        return None
    if spec is True:
        return FlightRecorder("full")
    if isinstance(spec, FlightRecorder):
        return spec
    if isinstance(spec, str):
        return FlightRecorder(spec)
    raise RecorderError(f"cannot interpret record={spec!r}")
