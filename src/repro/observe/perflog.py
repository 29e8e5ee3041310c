"""``perflog.tsv`` export: the artifact-style plain-text counter log.

The artifact appendix extracts every reported number from Fastsim's
``perflog.tsv``; this module writes the repro equivalent.  The format is a
uniform four-column TSV so it greps and pivots trivially::

    kind<TAB>name<TAB>field<TAB>value

with one header row.  Kinds: ``scalar`` (end-of-run counters), ``lane``
(per-lane busy cycles / events), ``channel`` (per-node injection and DRAM
occupancy + queue wait), ``msg`` (latency histogram stats per taxonomy
class), ``phase`` (KVMSR phase spans), ``hist`` (power-of-two bucket rows
of the wait/latency histograms).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from .histogram import LogHistogram
from .recorder import FlightRecorder

HEADER = ("kind", "name", "field", "value")


def _hist_rows(name: str, hist: LogHistogram) -> List[Tuple[str, ...]]:
    rows: List[Tuple[str, ...]] = [
        ("msg" if name.startswith("latency_") else "hist",
         name, "count", str(hist.count)),
        ("msg" if name.startswith("latency_") else "hist",
         name, "mean", f"{hist.mean:.3f}"),
        ("msg" if name.startswith("latency_") else "hist",
         name, "max", f"{hist.max:.3f}"),
    ]
    for bound, count in hist.rows():
        rows.append(("hist", name, f"le_{bound:.0f}", str(count)))
    return rows


def perflog_rows(
    recorder: Optional[FlightRecorder],
    scalars: Optional[Dict[str, Any]] = None,
    busy_cycles_by_lane: Optional[Dict[int, float]] = None,
) -> List[Tuple[str, ...]]:
    """All data rows (header excluded) for one run's perflog."""
    rows: List[Tuple[str, ...]] = []
    if scalars:
        for key, value in scalars.items():
            rows.append(("scalar", key, "value", repr(value)))
    if busy_cycles_by_lane:
        for nwid in sorted(busy_cycles_by_lane):
            rows.append(
                ("lane", str(nwid), "busy_cycles",
                 f"{busy_cycles_by_lane[nwid]:.3f}")
            )
    if recorder is None:
        return rows
    for family, by_node in (
        ("inj", recorder.inj_by_node),
        ("dram", recorder.dram_by_node),
    ):
        for node in sorted(by_node):
            ch = by_node[node]
            wait = ch.wait_hist
            name = f"{family}.{node}"
            rows.append(("channel", name, "admits", str(wait.count)))
            rows.append(("channel", name, "bytes", str(ch.bytes)))
            rows.append(
                ("channel", name, "occupancy_cycles",
                 f"{ch.occupancy_sum:.3f}")
            )
            rows.append(
                ("channel", name, "queue_wait_mean", f"{wait.mean:.3f}")
            )
            rows.append(
                ("channel", name, "queue_wait_max", f"{wait.max:.3f}")
            )
    for kind, hist in recorder.msg_latency.items():
        if hist.count:
            rows.extend(_hist_rows(f"latency_{kind}", hist))
    for name, hist in (
        ("inj_wait", recorder.inj_wait), ("dram_wait", recorder.dram_wait),
    ):
        if hist.count:
            rows.extend(_hist_rows(name, hist))
    for job, phase, start, end in recorder.phase_spans:
        rows.append(
            ("phase", f"{job}.{phase}", "span",
             f"{start:.3f}..{end:.3f}")
        )
    for name, job, t in recorder.marks:
        rows.append(
            ("phase", f"{job}.{name}" if job else name, "mark", f"{t:.3f}")
        )
    return rows


def format_perflog(
    recorder: Optional[FlightRecorder],
    scalars: Optional[Dict[str, Any]] = None,
    busy_cycles_by_lane: Optional[Dict[int, float]] = None,
) -> str:
    """The full perflog as TSV text (header + rows)."""
    lines = ["\t".join(HEADER)]
    lines.extend(
        "\t".join(row)
        for row in perflog_rows(recorder, scalars, busy_cycles_by_lane)
    )
    return "\n".join(lines) + "\n"


def write_perflog(
    path,
    recorder: Optional[FlightRecorder],
    scalars: Optional[Dict[str, Any]] = None,
    busy_cycles_by_lane: Optional[Dict[int, float]] = None,
) -> Path:
    """Write the perflog TSV to ``path``; returns the path."""
    path = Path(path)
    path.write_text(format_perflog(recorder, scalars, busy_cycles_by_lane))
    return path
