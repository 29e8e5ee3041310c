"""Deterministic fault injection + resilient delivery (the chaos harness).

Three pieces, wired through the machine / runtime / KVMSR layers:

* :class:`FaultPlan` — a seeded, content-keyed schedule of message
  drops/duplicates/delays, lane stalls, degraded DRAM bandwidth, and
  node fail-stop.  Faulty runs are bit-reproducible and invariant to the
  shard count (see ``plan.py``).
* :class:`ReliableTransport` / :class:`ReliabilityConfig` — opt-in
  ack/retry delivery so programs complete exactly-once under message
  loss (``transport.py``); enable via ``UpDownRuntime(reliable=True)``.
* The liveness watchdog — ``QuiescenceStall`` (simulated-time progress
  monitor in the simulator) — and ``RunIncomplete`` (a drain that ended
  without its completion message), re-exported here so chaos tests
  import one package.

See DESIGN.md, "Fault model & resilient delivery".
"""

from repro.machine.simulator import QuiescenceStall, RunIncomplete

from .plan import FaultPlan, FaultPlanError
from .transport import ReliabilityConfig, ReliableTransport

__all__ = [
    "FaultPlan",
    "FaultPlanError",
    "ReliabilityConfig",
    "ReliableTransport",
    "QuiescenceStall",
    "RunIncomplete",
]
