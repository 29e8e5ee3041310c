"""The flight recorder proper: what the machine layer feeds during a run.

The recorder is deliberately ignorant of the simulator's object model —
it receives plain numbers from a handful of hook sites (lane dispatch,
``Network`` injection-channel admission, ``MemoryChannel`` service,
message send, KVMSR phase transitions) and accumulates them into
exportable structures.
Hook sites hold ``None`` when a tier is off, so a disabled recorder costs
one pointer test per event.  Each sample is stored once, per node: a
channel's queue waits live only in its node's
:attr:`ChannelStats.wait_hist`, a message's latency only under its
source node in :attr:`FlightRecorder.msg_by_node`, and the machine-wide
views are merged from those in node order when read — so they do not
depend on how the host interleaved the nodes (sequentially or in shard
windows).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from .histogram import LogHistogram

#: recording tiers, cheapest first; each includes the ones before it.
TIERS = ("phases", "histograms", "full")

#: message-latency taxonomy keys (matching SimStats' message counters).
MESSAGE_KINDS = ("local", "remote", "host_injected", "host_bound")


class RecorderError(ValueError):
    """Raised for invalid recorder configuration."""


class ChannelStats:
    """Per-node accumulator for one serially-occupied channel."""

    __slots__ = ("bytes", "occupancy_sum", "wait_hist")

    def __init__(self) -> None:
        self.bytes: int = 0
        self.occupancy_sum: float = 0.0
        #: per-node queue-wait distribution, one sample per admission —
        #: its ``count`` / ``mean`` / ``max`` are the admits and the mean
        #: and max waits; backpressure thresholds are tuned off its
        #: p50/p99 (``harness.inspect.occupancy_report``).
        self.wait_hist: LogHistogram = LogHistogram()


class _MessagesByNode(dict):
    """``{source node: {kind: LogHistogram}}``; ``None`` is the host.
    A node's row is made on its first message."""

    def __missing__(self, node: Optional[int]) -> Dict[str, LogHistogram]:
        row = self[node] = {kind: LogHistogram() for kind in MESSAGE_KINDS}
        return row


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
        #: Phase spans and faults (rare, diagnostic) record at every tier.
        #: Channel and message-latency histograms need ``histograms``;
        #: lane spans and per-admission channel events need ``full``.
        self.record_channels = tier in ("histograms", "full")
        self.record_lane_spans = tier == "full"

        # -- lane timeline (full tier) --------------------------------
        #: (network_id, start, end, label) per executed event, capped.
        self.lane_spans: List[Tuple[int, float, float, str]] = []
        self.lane_spans_dropped: int = 0
        self._max_lane_spans = max_lane_spans

        # -- channel telemetry (histograms tier) ----------------------
        self.inj_by_node: Dict[int, ChannelStats] = {}
        self.dram_by_node: Dict[int, ChannelStats] = {}
        #: (node, start, wait, occupancy, nbytes) admissions (full tier).
        self.inj_events: List[Tuple[int, float, float, float, int]] = []
        self.dram_events: List[Tuple[int, float, float, float, int]] = []
        self.channel_events_dropped: int = 0
        self._max_channel_events = max_channel_events

        # -- message latency (histograms tier) ------------------------
        #: per source node (``None`` = host injections), per kind.
        self.msg_by_node: Dict[
            Optional[int], Dict[str, LogHistogram]
        ] = _MessagesByNode()

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

    def message(self, node: Optional[int], kind: str, latency: float) -> None:
        """One message put on the wire by ``node`` (``None``: the host);
        ``kind`` per :data:`MESSAGE_KINDS`."""
        self.msg_by_node[node][kind].add(latency)

    def _channel_sample(
        self,
        by_node: Dict[int, ChannelStats],
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
        ch.bytes += nbytes
        ch.occupancy_sum += occupancy
        ch.wait_hist.add(wait)
        if self.record_lane_spans:
            if len(events) < self._max_channel_events:
                events.append((node, start, wait, occupancy, nbytes))
            else:
                self.channel_events_dropped += 1

    def inj_sample(
        self, node: int, start: float, wait: float, occupancy: float, nbytes: int
    ) -> None:
        """One admission into a node's network-injection channel."""
        self._channel_sample(
            self.inj_by_node, self.inj_events,
            node, start, wait, occupancy, nbytes,
        )

    def dram_sample(
        self, node: int, start: float, wait: float, occupancy: float, nbytes: int
    ) -> None:
        """One serviced request on a node's DRAM channel."""
        self._channel_sample(
            self.dram_by_node, self.dram_events,
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

    @property
    def inj_wait(self) -> LogHistogram:
        """Machine-wide injection queue waits: the per-node histograms
        merged in node order (a new histogram per read)."""
        by_node = self.inj_by_node
        return LogHistogram.merge(by_node[n].wait_hist for n in sorted(by_node))

    @property
    def dram_wait(self) -> LogHistogram:
        """Machine-wide DRAM queue waits, merged like :attr:`inj_wait`."""
        by_node = self.dram_by_node
        return LogHistogram.merge(by_node[n].wait_hist for n in sorted(by_node))

    @property
    def msg_latency(self) -> Dict[str, LogHistogram]:
        """Machine-wide message latencies per kind: the per-source
        histograms merged, host first, then in node order (new
        histograms per read)."""
        by_node = self.msg_by_node
        order = sorted(by_node, key=lambda n: -1 if n is None else n)
        return {
            kind: LogHistogram.merge(by_node[n][kind] for n in order)
            for kind in MESSAGE_KINDS
        }

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
