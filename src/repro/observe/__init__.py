"""Flight recorder: tiered, always-cheap simulator telemetry.

The paper's evaluation is read off Fastsim's ``BASIM_PRINT`` /
``perflog.tsv`` logs (artifact appendix): per-lane cycle timelines,
message and DRAM traffic, and KVMSR phase timings explain *why* each
Figure 9-12 curve bends.  This package is that instrument for the repro
simulator — a :class:`FlightRecorder` the machine layer feeds while a run
executes, plus exporters to Chrome ``trace_event`` JSON (viewable in
``chrome://tracing`` / Perfetto) and a plain-text ``perflog.tsv``.

Recording is **tiered** so the default stays structurally free (DESIGN.md,
"Flight recorder & telemetry tiers"):

* ``record=None`` (no recorder; not a tier name) — zero cost: the hot
  paths hold a ``None`` hook and skip with one pointer test.
* ``"phases"`` — KVMSR job/phase spans (and injected faults) only; cost
  is per *phase*, not per event.
* ``"histograms"`` — adds per-node network-injection and DRAM-channel
  occupancy/queue-wait histograms and local/remote message-latency
  histograms; O(nodes) memory, one histogram add per message/access.
* ``"full"`` — adds per-event lane busy spans and per-admission channel
  events (the Chrome-trace timeline tracks); O(events) memory, bounded by
  drop caps.  One span per executed event, so the span labels are the
  per-label event counts (``harness.inspect.event_report``).
"""

from .histogram import LogHistogram
from .perflog import format_perflog, write_perflog
from .recorder import FlightRecorder, RecorderError, TIERS, make_recorder
from .trace import chrome_trace, write_chrome_trace

__all__ = [
    "FlightRecorder",
    "RecorderError",
    "LogHistogram",
    "TIERS",
    "make_recorder",
    "chrome_trace",
    "write_chrome_trace",
    "format_perflog",
    "write_perflog",
]
