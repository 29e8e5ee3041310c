"""Post-run machine inspection: where did the time and traffic go?

Text reports over a finished simulation, for the performance-debugging
loop the paper's §5.3 placement experiments imply (find the hot memory
node, change one DRAMmalloc number, re-run).
"""

from __future__ import annotations

from collections import Counter

from repro.machine.simulator import Simulator


def memory_report(sim: Simulator, top: int = 8) -> str:
    """Per-node DRAM bytes served, hottest first — the Figure 12
    diagnosis view (a skewed column means placement is the bottleneck)."""
    rows = [
        (node, sim.memory.bytes_served(node))
        for node in range(sim.config.nodes)
    ]
    rows.sort(key=lambda r: -r[1])
    total = sum(b for _n, b in rows) or 1
    lines = ["node   bytes_served   share"]
    for node, served in rows[:top]:
        lines.append(f"{node:4}   {served:12}   {served / total:6.1%}")
    mean = total / sim.config.nodes
    hottest = rows[0][1] if rows else 0
    lines.append(
        f"hot/mean ratio: {hottest / mean:.2f}x over {sim.config.nodes} nodes"
    )
    return "\n".join(lines)


def lane_report(sim: Simulator, top: int = 8) -> str:
    """Busiest lanes by executed cycles — the load-balance view."""
    stats = sim.stats
    rows = sorted(
        stats.busy_cycles_by_lane.items(), key=lambda kv: -kv[1]
    )
    lines = ["lane   busy_cycles   share_of_makespan"]
    makespan = stats.final_tick or 1.0
    for lane, busy in rows[:top]:
        lines.append(f"{lane:4}   {busy:11.0f}   {busy / makespan:6.1%}")
    lines.append(
        f"active lanes: {stats.active_lanes()}, "
        f"imbalance {stats.load_imbalance():.2f}x, "
        f"utilization {stats.utilization(sim.config.total_lanes):.1%}"
    )
    return "\n".join(lines)


def event_report(sim: Simulator, top: int = 10) -> str:
    """Event counts by label — which part of the program dominated.

    Counts the flight recorder's lane spans, one per executed event:
    build the runtime with ``record="full"`` (the scalar stats keep no
    per-label count; see DESIGN.md, "Simulator hot path & stats tiers").
    """
    rec = sim.recorder
    if rec is None or not rec.record_lane_spans:
        return (
            "event label counts unavailable: run with record='full' "
            "to collect lane spans"
        )
    counts = Counter(label for *_, label in rec.lane_spans)
    lines = ["event label" + " " * 35 + "count"]
    for label, count in counts.most_common(top):
        lines.append(f"{label:45} {count:8}")
    if rec.lane_spans_dropped:
        lines.append(
            f"({rec.lane_spans_dropped} events past the lane-span cap "
            "are not counted)"
        )
    return "\n".join(lines)


def occupancy_report(sim: Simulator, top: int = 8) -> str:
    """Per-node injection and DRAM channel occupancy from the flight
    recorder — which channel the run actually queued behind.

    Requires the ``histograms`` recorder tier or above: build the runtime
    with ``record="histograms"`` (or ``record=True``).
    """
    rec = sim.recorder
    if rec is None or not rec.record_channels:
        return (
            "channel occupancy unavailable: run with record='histograms' "
            "(or record=True) to collect channel telemetry"
        )
    makespan = sim.stats.final_tick or 1.0
    lines = []
    for title, by_node, wait_hist in (
        ("injection channel", rec.inj_by_node, rec.inj_wait),
        ("dram channel", rec.dram_by_node, rec.dram_wait),
    ):
        lines.append(
            f"{title} (node, admits, bytes, occupancy_share, "
            "mean_wait, wait_p50, wait_p99, max_wait)"
        )
        rows = sorted(
            by_node.items(), key=lambda kv: -kv[1].occupancy_sum
        )
        if not rows:
            lines.append("  (no traffic)")
        for node, ch in rows[:top]:
            # per-node p50/p99 queue wait (power-of-two bucket bounds) —
            # the number an admission-control threshold is tuned against
            wait = ch.wait_hist
            lines.append(
                f"{node:4}   {wait.count:8}   {ch.bytes:10}   "
                f"{ch.occupancy_sum / makespan:6.1%}   "
                f"{wait.mean:8.1f}   "
                f"{wait.quantile_bound(0.5):8.1f}   "
                f"{wait.quantile_bound(0.99):8.1f}   "
                f"{wait.max:8.1f}"
            )
        lines.append(
            f"queue wait: count={wait_hist.count} "
            f"mean={wait_hist.mean:.1f} "
            f"p50={wait_hist.quantile_bound(0.5):.1f} "
            f"p99={wait_hist.quantile_bound(0.99):.1f} "
            f"max={wait_hist.max:.1f}"
        )
        lines.append("")
    return "\n".join(lines).rstrip()


def full_report(sim: Simulator) -> str:
    """Summary + memory + lane + event (+ occupancy) reports."""
    parts = [
        sim.stats.summary(),
        memory_report(sim),
        lane_report(sim),
        event_report(sim),
    ]
    if sim.recorder is not None and sim.recorder.record_channels:
        parts.append(occupancy_report(sim))
    return "\n\n".join(parts)
