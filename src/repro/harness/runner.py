"""Experiment runner: one function per application, one fresh machine per
configuration — the artifact's "run the binary with <nodes>" step.

Every runner builds a scaled-down :func:`repro.machine.bench_machine`
(lanes-per-node reduced 64×, with per-node memory and injection bandwidth
scaled to match; see DESIGN.md) and returns the simulated seconds the
artifact extracts from the logs (``ticks / 2 GHz``).

Every runner also takes a ``record=`` flag (a tier name, ``True``, or a
prebuilt :class:`~repro.observe.FlightRecorder`) that attaches a flight
recorder to the run; the recorder lands in ``RunRecord.extra["recorder"]``
ready for :func:`repro.harness.export.write_chrome_trace` /
``write_perflog_tsv`` or :func:`repro.harness.inspect.occupancy_report`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence

from repro.apps.bfs import BFSApp
from repro.apps.ingestion import IngestionApp
from repro.apps.pagerank import PageRankApp
from repro.apps.partial_match import PartialMatchApp, Pattern
from repro.apps.tform import Record
from repro.apps.triangle import TriangleCountApp
from repro.graph.csr import CSRGraph
from repro.machine.config import MachineConfig, bench_machine
from repro.machine.simulator import QuiescenceStall
from repro.observe import make_recorder
from repro.udweave import UpDownRuntime

#: benchmark machine shape: 2 lanes/node (each simulated node models a
#: 1/1024 slice of a real 2048-lane node; see bench_machine)
BENCH_ACCELS_PER_NODE = 1
BENCH_LANES_PER_ACCEL = 2

#: guardrail for runaway simulations in sweeps
DEFAULT_MAX_EVENTS = 30_000_000

#: Scaled-down graphs are ~2^16x smaller than the paper's, so the
#: paper-default 32KB placement block would put whole arrays (and whole
#: hub neighbor lists) on one node.  512B blocks keep the blocks-per-array
#: and blocks-per-hub-list ratios comparable to full scale (DESIGN.md).
BENCH_BLOCK_SIZE = 512


def bench_config(nodes: int, **overrides) -> MachineConfig:
    """The scaled benchmark machine at a given node count (see DESIGN.md).

    Any :class:`MachineConfig` field can be overridden by keyword.
    """
    return bench_machine(
        nodes=nodes,
        accels_per_node=BENCH_ACCELS_PER_NODE,
        lanes_per_accel=BENCH_LANES_PER_ACCEL,
        **overrides,
    )


@dataclass
class RunRecord:
    """One (app, config) execution."""

    nodes: int
    seconds: float
    metric: float  # app-specific figure of merit (GUPS, GTEPS, recs/s, ...)
    extra: Dict[str, Any] = field(default_factory=dict)


def _bench_runtime(
    nodes: int,
    record,
    machine_overrides,
    shards: int = 1,
    faults=None,
    reliable=False,
    watchdog_cycles: Optional[float] = None,
) -> UpDownRuntime:
    """A fresh recorded-or-not benchmark runtime (shared by all runners)."""
    return UpDownRuntime(
        bench_config(nodes, **machine_overrides),
        recorder=make_recorder(record),
        shards=shards,
        faults=faults,
        reliable=reliable,
        watchdog_cycles=watchdog_cycles,
    )


def _attach_recorder(extra: Dict[str, Any], rt: UpDownRuntime) -> Dict[str, Any]:
    if rt.recorder is not None:
        extra["recorder"] = rt.recorder
    # sharded runs expose the window loop's count ({"windows": n});
    # sequential runs have no window loop and report nothing.  Host-side,
    # so outside SimStats: fingerprints stay shard-invariant
    metrics = rt.sim.parallel_metrics()
    if metrics is not None:
        extra["parallel_metrics"] = metrics
    # why batched dispatch did (not) happen: per-label lowering verdicts
    # and the parking verdict — host-side too, so outside SimStats
    extra["batch"] = rt.sim.batch_report()
    return extra


def _check_quiescence(rt: UpDownRuntime, require: bool) -> None:
    """Fail loudly when a run ends stalled instead of quiesced.

    An empty event heap with live threads still pending is the silent
    shape of a lost message or credit; harness runs treat it as an error
    by default rather than reporting a bogus makespan.
    """
    stats = rt.sim.stats
    if require and not stats.quiesced:
        raise QuiescenceStall(
            f"run ended without quiescing: {stats.pending_threads} "
            f"thread(s) still waiting for events (the silent shape of a "
            f"lost message or credit); pass require_quiescence=False to "
            f"accept a partial run",
            rt.sim.stall_dump(),
        )


def run_pagerank(
    graph: CSRGraph,
    nodes: int,
    iterations: int = 1,
    max_degree: int = 64,
    mem_nodes: Optional[int] = None,
    max_events: int = DEFAULT_MAX_EVENTS,
    record=None,
    shards: int = 1,
    faults=None,
    reliable=False,
    watchdog_cycles: Optional[float] = None,
    require_quiescence: bool = True,
    **machine_overrides,
) -> RunRecord:
    """One PageRank run on a fresh scaled machine; returns its RunRecord."""
    rt = _bench_runtime(
        nodes, record, machine_overrides, shards, faults,
        reliable, watchdog_cycles,
    )
    app = PageRankApp(
        rt, graph, max_degree=max_degree, mem_nodes=mem_nodes,
        block_size=BENCH_BLOCK_SIZE,
    )
    res = app.run(iterations=iterations, max_events=max_events)
    _check_quiescence(rt, require_quiescence)
    return RunRecord(
        nodes=nodes,
        seconds=res.elapsed_seconds,
        metric=res.giga_updates_per_second,
        extra=_attach_recorder(
            {"edges": res.edges_per_iteration, "stats": res.stats}, rt
        ),
    )


def run_bfs(
    graph: CSRGraph,
    nodes: int,
    root: int = 0,
    max_degree: int = 64,
    mem_nodes: Optional[int] = None,
    frontier_mem_nodes: Optional[int] = None,
    max_events: int = DEFAULT_MAX_EVENTS,
    record=None,
    shards: int = 1,
    faults=None,
    reliable=False,
    watchdog_cycles: Optional[float] = None,
    require_quiescence: bool = True,
    **machine_overrides,
) -> RunRecord:
    """One BFS run on a fresh scaled machine; returns its RunRecord."""
    rt = _bench_runtime(
        nodes, record, machine_overrides, shards, faults,
        reliable, watchdog_cycles,
    )
    app = BFSApp(
        rt,
        graph,
        max_degree=max_degree,
        mem_nodes=mem_nodes,
        frontier_mem_nodes=frontier_mem_nodes,
        block_size=BENCH_BLOCK_SIZE,
    )
    res = app.run(root=root, max_events=max_events)
    _check_quiescence(rt, require_quiescence)
    return RunRecord(
        nodes=nodes,
        seconds=res.elapsed_seconds,
        metric=res.giga_teps,
        extra=_attach_recorder(
            {
                "rounds": res.rounds,
                "traversed": res.traversed_edges,
                "stats": res.stats,
            },
            rt,
        ),
    )


def run_triangle_count(
    graph: CSRGraph,
    nodes: int,
    pbmw: bool = False,
    mem_nodes: Optional[int] = None,
    max_events: int = DEFAULT_MAX_EVENTS,
    record=None,
    shards: int = 1,
    faults=None,
    reliable=False,
    watchdog_cycles: Optional[float] = None,
    require_quiescence: bool = True,
    **machine_overrides,
) -> RunRecord:
    """One TC run on a fresh scaled machine; returns its RunRecord."""
    rt = _bench_runtime(
        nodes, record, machine_overrides, shards, faults,
        reliable, watchdog_cycles,
    )
    app = TriangleCountApp(
        rt, graph, pbmw=pbmw, mem_nodes=mem_nodes, block_size=BENCH_BLOCK_SIZE
    )
    res = app.run(max_events=max_events)
    _check_quiescence(rt, require_quiescence)
    return RunRecord(
        nodes=nodes,
        seconds=res.elapsed_seconds,
        metric=res.triangles / res.elapsed_seconds if res.elapsed_seconds else 0,
        extra=_attach_recorder(
            {"triangles": res.triangles, "stats": res.stats}, rt
        ),
    )


def run_ingestion(
    records: Sequence[Record],
    nodes: int,
    block_words: int = 64,
    max_events: int = DEFAULT_MAX_EVENTS,
    record=None,
    shards: int = 1,
    faults=None,
    reliable=False,
    watchdog_cycles: Optional[float] = None,
    require_quiescence: bool = True,
    **machine_overrides,
) -> RunRecord:
    """One ingestion run on a fresh scaled machine; returns its RunRecord."""
    rt = _bench_runtime(
        nodes, record, machine_overrides, shards, faults,
        reliable, watchdog_cycles,
    )
    app = IngestionApp(rt, records, block_words=block_words)
    res = app.run(max_events=max_events)
    _check_quiescence(rt, require_quiescence)
    return RunRecord(
        nodes=nodes,
        seconds=res.elapsed_seconds,
        metric=res.records_per_second,
        extra=_attach_recorder({"records": res.records, "stats": res.stats}, rt),
    )


def run_partial_match(
    records: Sequence[Record],
    patterns: Sequence[Pattern],
    nodes: int,
    gap_cycles: float = 2000.0,
    max_events: int = DEFAULT_MAX_EVENTS,
    record=None,
    shards: int = 1,
    faults=None,
    reliable=False,
    watchdog_cycles: Optional[float] = None,
    require_quiescence: bool = True,
    **machine_overrides,
) -> RunRecord:
    """One partial-match stream on a fresh scaled machine (latency metric)."""
    rt = _bench_runtime(
        nodes, record, machine_overrides, shards, faults,
        reliable, watchdog_cycles,
    )
    app = PartialMatchApp(rt, patterns)
    res = app.run_stream(
        records, gap_cycles=gap_cycles, max_events=max_events
    )
    _check_quiescence(rt, require_quiescence)
    return RunRecord(
        nodes=nodes,
        seconds=res.mean_latency_seconds,
        metric=1.0 / res.mean_latency_seconds if res.mean_latency_seconds else 0,
        extra=_attach_recorder({"alerts": len(res.alerts), "stats": res.stats}, rt),
    )


def run_service(
    requests,
    nodes: int,
    admission=None,
    slo=None,
    patterns=None,
    step_cycles: float = 4_000.0,
    drain_grace_cycles: float = 400_000.0,
    max_events: int = DEFAULT_MAX_EVENTS,
    record="histograms",
    shards: int = 1,
    faults=None,
    reliable=False,
    watchdog_cycles: Optional[float] = None,
    **machine_overrides,
) -> RunRecord:
    """One always-on service run on a fresh scaled machine.

    ``requests`` is the materialized open-loop stream (see
    :meth:`repro.service.ServiceWorkload.requests`); ``admission`` and
    ``slo`` are the optional :class:`~repro.service.AdmissionControl`
    and :class:`~repro.service.SLOSpec`.  Records per-request latency
    histograms by default (``record="histograms"``).

    ``shards`` selects the execution mode as for the batch runners; the
    harness steps the machine with ``run(until=)``, which is the same
    clamp sequentially and sharded, so both produce one fingerprint.

    There is no quiescence requirement here: a service run ends when the
    drain grace expires, and unanswered requests are *accounted* (the
    ``lost`` status the SLO verdict checks) rather than waited for — a
    lazily-cancelled retransmit timer left past the horizon is normal.

    ``RunRecord.seconds`` is the simulated wall time; ``metric`` is
    completed requests per simulated second.  The full
    :class:`~repro.service.ServiceResult` (verdict included when ``slo``
    is given) lands in ``extra["service"]``.
    """
    from repro.service import DEFAULT_PATTERNS, ServiceApp, ServiceHarness

    rt = _bench_runtime(
        nodes, record, machine_overrides, shards, faults,
        reliable, watchdog_cycles,
    )
    app = ServiceApp(
        rt, patterns=patterns if patterns is not None else DEFAULT_PATTERNS
    )
    harness = ServiceHarness(
        app,
        admission=admission,
        step_cycles=step_cycles,
        drain_grace_cycles=drain_grace_cycles,
    )
    res = harness.run(requests, slo=slo, max_events=max_events)
    completed = res.status_counts["ok"] + res.status_counts["deadline_miss"]
    return RunRecord(
        nodes=nodes,
        seconds=res.elapsed_seconds,
        metric=completed / res.elapsed_seconds if res.elapsed_seconds else 0,
        extra=_attach_recorder(
            {
                "service": res,
                "stats": res.stats,
                "verdict": res.verdict,
            },
            rt,
        ),
    )
