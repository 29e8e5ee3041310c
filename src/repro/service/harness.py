"""Open-loop service driver: interleaved stepping, admission, deadlines.

The harness turns the batch simulator into an always-on service: it
steps the machine through fixed windows (``Simulator.run(until=)`` —
forwarded to the shard scheduler's clamped epoch windows when sharded),
and between windows plays the host-side control plane:

* **admission** — each arriving request is checked against the ingress
  node's injection-channel backlog (:meth:`Network.injection_backlog`);
  over-threshold arrivals are shed (counted, never injected) or
  deferred (injected later, the wait charged to their latency);
* **dispatch** — admitted requests are injected as per-request threads
  (``ServiceApp.start_label``) at their admission tick;
* **completion** — host-mailbox messages close the latency measurement
  the arrival tick opened; completions past the deadline are
  ``deadline_miss``, requests still unanswered when the post-traffic
  drain grace expires are ``lost``.

Everything the control plane reads between windows (channel ``free_at``,
the host inbox) is bit-identical across shard counts at window
boundaries — all events before the boundary have executed, all events
after it have not — so a sharded service run reproduces the sequential
one byte for byte, chaos plans included.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.machine.simulator import SimulationError
from repro.machine.stats import SimStats
from repro.observe.histogram import LogHistogram

from .app import DONE_LABEL, ServiceApp
from .slo import SLOSpec, SLOVerdict, histogram_fingerprint
from .workload import REQUEST_CLASSES, Request

#: update completions arrive under PMRecordTask's label.
_UPDATE_DONE_LABEL = "pm_rec_done"
_ALERT_LABEL = "pm_alert"


class AdmissionControl:
    """Bounded queue-wait admission at the ingress injection channel.

    ``max_queue_wait_cycles`` is the backlog a request may queue behind;
    beyond it the ``policy`` decides: ``"shed"`` rejects the request
    outright (the ``requests_shed`` counter), ``"defer"`` delays its
    injection until the backlog has drained back to the threshold
    (bounded by ``max_defer_cycles``; past that bound it is shed after
    all).  The default threshold is infinite — admit everything — so
    plain latency measurement needs no configuration.
    """

    def __init__(
        self,
        max_queue_wait_cycles: float = math.inf,
        policy: str = "shed",
        max_defer_cycles: Optional[float] = None,
    ) -> None:
        if policy not in ("shed", "defer"):
            raise ValueError("policy must be 'shed' or 'defer'")
        if max_queue_wait_cycles < 0:
            raise ValueError("max_queue_wait_cycles must be non-negative")
        self.max_queue_wait_cycles = float(max_queue_wait_cycles)
        self.policy = policy
        self.max_defer_cycles = max_defer_cycles
        self.requests_admitted = 0
        self.requests_shed = 0
        self.requests_deferred = 0
        self.defer_cycles_total = 0.0

    def decide(self, sim, node: int, t_arrival: float) -> Tuple[str, float]:
        """Admission decision for an arrival at ``t_arrival`` bound for
        ``node``; returns ``(verdict, t_admit)`` with verdict one of
        ``"admit"`` / ``"defer"`` / ``"shed"``."""
        backlog = sim.network.injection_backlog(node, t_arrival)
        if backlog <= self.max_queue_wait_cycles:
            self.requests_admitted += 1
            return "admit", t_arrival
        if self.policy == "defer":
            delay = backlog - self.max_queue_wait_cycles
            if self.max_defer_cycles is None or delay <= self.max_defer_cycles:
                self.requests_admitted += 1
                self.requests_deferred += 1
                self.defer_cycles_total += delay
                return "defer", t_arrival + delay
        self.requests_shed += 1
        return "shed", t_arrival

    def counters(self) -> Dict[str, Any]:
        """Plain-data counter snapshot (verdicts, JSON artifacts)."""
        return {
            "requests_admitted": self.requests_admitted,
            "requests_shed": self.requests_shed,
            "requests_deferred": self.requests_deferred,
            "defer_cycles_total": self.defer_cycles_total,
        }


@dataclass
class ServiceResult:
    """Everything one service run measured, verdict included."""

    latency_hist: Dict[str, LogHistogram]
    status_counts: Dict[str, int]
    per_request: Dict[int, str]
    alerts: int
    requests_total: int
    admission: AdmissionControl
    transport_give_ups: int
    give_up_log: List[tuple]
    fault_counts: Dict[str, int]
    stats: SimStats
    elapsed_seconds: float
    verdict: Optional[SLOVerdict] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    def fingerprint(self) -> str:
        """Digest of the run's observable outcome.

        Covers the per-class latency histograms (exact bucket contents,
        counts, totals), every per-request verdict, the admission
        counters, and the transport give-up set — equal fingerprints
        mean the runs were observationally identical.  The give-up log
        is sorted first: in-process shards retire windows shard by
        shard, so its append order (only) is shard-dependent.
        """
        canon = (
            histogram_fingerprint(self.latency_hist),
            tuple(sorted(self.status_counts.items())),
            tuple(sorted(self.per_request.items())),
            self.alerts,
            self.requests_total,
            tuple(sorted(self.admission.counters().items())),
            self.transport_give_ups,
            tuple(sorted(self.give_up_log)),
        )
        return hashlib.sha256(repr(canon).encode()).hexdigest()

    def p99_cycles(self, cls: str) -> float:
        """Convenience: the class's p99 latency bound in cycles."""
        hist = self.latency_hist.get(cls)
        return hist.quantile_bound(0.99) if hist is not None else 0.0


class ServiceHarness:
    """Drives one :class:`ServiceApp` with an open-loop request stream."""

    def __init__(
        self,
        app: ServiceApp,
        admission: Optional[AdmissionControl] = None,
        step_cycles: float = 4_000.0,
        drain_grace_cycles: float = 400_000.0,
    ) -> None:
        if step_cycles <= 0:
            raise ValueError("step_cycles must be positive")
        if drain_grace_cycles < 0:
            raise ValueError("drain_grace_cycles must be non-negative")
        self.app = app
        self.runtime = app.runtime
        self.admission = admission or AdmissionControl()
        self.step_cycles = float(step_cycles)
        self.drain_grace_cycles = float(drain_grace_cycles)

    # ------------------------------------------------------------------
    # Dispatch plumbing
    # ------------------------------------------------------------------

    def _ingress(self, req: Request) -> Tuple[int, int]:
        """(lane, node) a request enters the machine through."""
        lane = req.req_id % self.app.ingest_lanes
        return lane, lane // self.runtime.config.lanes_per_node

    def _inject(self, req: Request, lane: int, t_admit: float) -> None:
        rt = self.runtime
        rt.start(
            lane,
            self.app.start_label(req.cls),
            self.app.name,
            req.req_id,
            *req.payload,
            t=t_admit,
        )

    def _admit_one(
        self,
        sim,
        req: Request,
        per_request: Dict[int, str],
        inflight: Dict[int, Request],
    ) -> None:
        """Admission-check one arrival and inject it (or shed it)."""
        lane, node = self._ingress(req)
        verdict, t_admit = self.admission.decide(sim, node, req.t_arrival)
        if verdict == "shed":
            per_request[req.req_id] = "shed"
            return
        self._inject(req, lane, t_admit)
        inflight[req.req_id] = req

    # ------------------------------------------------------------------
    # The open loop
    # ------------------------------------------------------------------

    def run(
        self,
        requests: Sequence[Request],
        slo: Optional[SLOSpec] = None,
        max_events: Optional[int] = None,
    ) -> ServiceResult:
        """Serve the request stream to completion; returns the result.

        Never hangs: traffic ends at the last arrival, then the machine
        gets ``drain_grace_cycles`` of simulated time to answer what is
        in flight; whatever is still unanswered is recorded as ``lost``
        (with the transport's give-up log naming the abandoned
        deliveries) rather than waited for.

        Host mail is consumed as it is matched: each window's new
        ``sim.host_inbox`` entries are removed once read, so a soak's host
        memory does not grow with the requests served.  Mail already in
        the inbox when ``run`` starts is read once and left in place.
        """
        rt = self.runtime
        sim = rt.sim
        admission = self.admission
        step = self.step_cycles
        reqs = sorted(requests, key=lambda r: (r.t_arrival, r.req_id))
        latency_hist = {cls: LogHistogram() for cls in REQUEST_CLASSES}
        per_request: Dict[int, str] = {}
        inflight: Dict[int, Request] = {}
        inbox_pos = 0
        inbox_keep = len(sim.host_inbox)
        alerts = 0
        events_base = sim.stats.events_executed
        horizon = reqs[-1].t_arrival if reqs else 0.0
        end = horizon + self.drain_grace_cycles
        now = 0.0
        idx = 0
        ahead = False  # reqs[idx] already decided by the look-ahead below
        while now < end:
            win_end = now + step if now + step < end else end
            while idx < len(reqs) and reqs[idx].t_arrival < win_end:
                if ahead:
                    ahead = False
                    idx += 1
                    continue
                self._admit_one(sim, reqs[idx], per_request, inflight)
                idx += 1
            # look one arrival ahead: injecting it now rearms the
            # quiescence watchdog through the idle gap before it (a
            # lazily-cancelled retransmit timer firing mid-gap must not
            # read the *previous* burst as the last progress), while
            # masking the watchdog by at most one inter-arrival gap
            if idx < len(reqs) and not ahead:
                self._admit_one(sim, reqs[idx], per_request, inflight)
                ahead = True
            budget = None
            if max_events is not None:
                budget = max_events - (sim.stats.events_executed - events_base)
                if budget <= 0:
                    raise SimulationError(
                        f"service run exceeded max_events={max_events}"
                    )
            sim.run(max_events=budget, until=win_end)
            now = win_end
            inbox_pos, alerts = self._collect(
                sim, inbox_pos, inbox_keep, inflight, per_request,
                latency_hist, alerts,
            )
            if idx >= len(reqs) and not inflight:
                break
        # whatever never answered inside the grace window is lost — the
        # graceful-degradation verdict, not a hang
        for req_id in sorted(inflight):
            per_request[req_id] = "lost"
        inflight.clear()
        status_counts = {
            s: 0 for s in ("ok", "deadline_miss", "shed", "lost")
        }
        for status in per_request.values():
            status_counts[status] += 1
        transport = getattr(sim, "_transport", None)
        give_up_log = (
            sorted(transport.give_up_log) if transport is not None else []
        )
        recorder = sim.recorder
        fault_counts = (
            dict(recorder.fault_counts) if recorder is not None else {}
        )
        result = ServiceResult(
            latency_hist=latency_hist,
            status_counts=status_counts,
            per_request=per_request,
            alerts=alerts,
            requests_total=len(reqs),
            admission=admission,
            transport_give_ups=sim.stats.transport_give_ups,
            give_up_log=give_up_log,
            fault_counts=fault_counts,
            stats=sim.stats,
            elapsed_seconds=rt.elapsed_seconds,
        )
        if slo is not None:
            result.verdict = slo.evaluate(
                latency_hist,
                status_counts,
                admission.requests_shed,
                len(reqs),
                sim.stats.transport_give_ups,
            )
        return result

    def _collect(
        self,
        sim,
        inbox_pos: int,
        inbox_keep: int,
        inflight: Dict[int, Request],
        per_request: Dict[int, str],
        latency_hist: Dict[str, LogHistogram],
        alerts: int,
    ) -> Tuple[int, int]:
        """Match new host-inbox messages against in-flight requests, then
        drop every entry past ``inbox_keep`` (the mail this run added)."""
        inbox = sim.host_inbox
        for i in range(inbox_pos, len(inbox)):
            t, msg = inbox[i]
            label = msg.label
            if label == DONE_LABEL or label == _UPDATE_DONE_LABEL:
                req = inflight.pop(msg.operands[0], None)
                if req is None:
                    continue
                latency = t - req.t_arrival
                latency_hist[req.cls].add(latency)
                per_request[req.req_id] = (
                    "ok" if latency <= req.deadline_cycles
                    else "deadline_miss"
                )
            elif label == _ALERT_LABEL:
                alerts += 1
        del inbox[inbox_keep:]
        return inbox_keep, alerts
