"""Chrome ``trace_event`` export of a recorded run.

Produces the JSON object format (``{"traceEvents": [...]}``) understood by
``chrome://tracing`` and Perfetto.  Tracks:

* one process ("lanes") with a thread per lane — per-event busy spans,
  in ``(start, lane, label)`` order, so a batched run's trace is the
  interpreter's byte for byte;
* one process per channel family ("network injection", "dram") with a
  thread per node — per-admission occupancy spans (full tier only);
* one process ("kvmsr") with a thread per job — phase spans plus instant
  markers (quiescence polls).

Timestamps are microseconds of *simulated* time (``cycles / clock``), so
the timeline reads in the same units as the paper's figures.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional

from .recorder import FlightRecorder

#: stable process ids for the trace tracks.
PID_LANES = 1
PID_NET = 2
PID_DRAM = 3
PID_KVMSR = 4

_PROCESS_NAMES = {
    PID_LANES: "lanes",
    PID_NET: "network injection",
    PID_DRAM: "dram",
    PID_KVMSR: "kvmsr",
}


def _meta(pid: int, name: str, tid: int = 0, what: str = "process_name"):
    return {
        "ph": "M",
        "pid": pid,
        "tid": tid,
        "name": what,
        "args": {"name": name},
    }


def chrome_trace(
    recorder: FlightRecorder,
    clock_hz: float,
    scalars: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Build the trace dict for ``recorder``; serialize with ``json.dump``.

    ``scalars`` (e.g. ``stats.scalar_snapshot()``) lands under
    ``otherData`` so the end-of-run counters travel with the timeline.
    """
    us = 1e6 / clock_hz  # cycles -> microseconds
    events: List[Dict[str, Any]] = [
        _meta(pid, name) for pid, name in _PROCESS_NAMES.items()
    ]

    # Sorted, so the trace does not depend on when spans were appended:
    # batched records append theirs when their lane flushes.
    spans = sorted(
        recorder.lane_spans, key=lambda s: (s[1], s[0], s[3], s[2])
    )
    for nwid, start, end, label in spans:
        events.append(
            {
                "ph": "X",
                "pid": PID_LANES,
                "tid": nwid,
                "name": label,
                "cat": "lane",
                "ts": start * us,
                "dur": (end - start) * us,
            }
        )

    for pid, cat, samples in (
        (PID_NET, "inj", recorder.inj_events),
        (PID_DRAM, "dram", recorder.dram_events),
    ):
        for node, start, wait, occupancy, nbytes in samples:
            events.append(
                {
                    "ph": "X",
                    "pid": pid,
                    "tid": node,
                    "name": f"{cat} {nbytes}B",
                    "cat": cat,
                    "ts": start * us,
                    "dur": occupancy * us,
                    "args": {"queue_wait_cycles": wait, "bytes": nbytes},
                }
            )

    job_tids: Dict[str, int] = {}

    def _job_tid(job: str) -> int:
        tid = job_tids.get(job)
        if tid is None:
            tid = job_tids[job] = len(job_tids)
            events.append(_meta(PID_KVMSR, job, tid, "thread_name"))
        return tid

    for job, phase, start, end in recorder.phase_spans:
        events.append(
            {
                "ph": "X",
                "pid": PID_KVMSR,
                "tid": _job_tid(job),
                "name": phase,
                "cat": "kvmsr",
                "ts": start * us,
                "dur": (end - start) * us,
                "args": {"job": job},
            }
        )
    for name, job, t in recorder.marks:
        events.append(
            {
                "ph": "i",
                "pid": PID_KVMSR,
                "tid": _job_tid(job) if job is not None else 0,
                "name": name,
                "cat": "kvmsr",
                "ts": t * us,
                "s": "t",
            }
        )

    trace: Dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "recorder_tier": recorder.tier,
            "clock_hz": clock_hz,
            "lane_spans_dropped": recorder.lane_spans_dropped,
            "channel_events_dropped": recorder.channel_events_dropped,
        },
    }
    if scalars:
        trace["otherData"]["scalars"] = dict(scalars)
    return trace


def write_chrome_trace(
    path,
    recorder: FlightRecorder,
    clock_hz: float,
    scalars: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write :func:`chrome_trace` output as JSON; returns the path."""
    path = Path(path)
    with open(path, "w") as fh:
        json.dump(chrome_trace(recorder, clock_hz, scalars), fh)
    return path
