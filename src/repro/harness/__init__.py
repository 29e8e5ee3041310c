"""Experiment harness: runners, node sweeps, paper-style reports, LoC,
and the one run fingerprint every parity test compares."""

from .export import (
    read_csv,
    write_chrome_trace,
    write_perflog_tsv,
    write_series_csv,
    write_speedup_csv,
)
from .inspect import (
    event_report,
    full_report,
    lane_report,
    memory_report,
    occupancy_report,
)
from .loc import TABLE5_MAP, TABLE5_PAPER_LOC, count_loc, repo_loc, table5_loc
from .parity import fingerprint
from .report import series_table, shape_summary, speedup_table
from .runner import (
    DEFAULT_MAX_EVENTS,
    RunRecord,
    bench_config,
    run_bfs,
    run_ingestion,
    run_pagerank,
    run_partial_match,
    run_service,
    run_triangle_count,
)
from .sweep import (
    PR_BFS_NODES,
    TC_NODES,
    is_monotone_nondecreasing,
    scaling_efficiency,
    shape_agreement,
    speedups,
    sweep,
)

__all__ = [
    "RunRecord",
    "bench_config",
    "run_pagerank",
    "run_bfs",
    "run_triangle_count",
    "run_ingestion",
    "run_partial_match",
    "run_service",
    "DEFAULT_MAX_EVENTS",
    "sweep",
    "speedups",
    "scaling_efficiency",
    "shape_agreement",
    "is_monotone_nondecreasing",
    "PR_BFS_NODES",
    "TC_NODES",
    "speedup_table",
    "series_table",
    "shape_summary",
    "count_loc",
    "table5_loc",
    "repo_loc",
    "TABLE5_MAP",
    "TABLE5_PAPER_LOC",
    "write_speedup_csv",
    "write_series_csv",
    "write_chrome_trace",
    "write_perflog_tsv",
    "read_csv",
    "memory_report",
    "lane_report",
    "event_report",
    "occupancy_report",
    "full_report",
    "fingerprint",
]
