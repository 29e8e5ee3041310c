"""CI smoke: a short service soak's SLO verdict is deterministic.

Runs one fixed seeded steady-QPS soak under a deterministic 1% message
drop plan with ack/retry delivery, four times — twice sequentially with
the same seed, once with ``shards=2``, once with ``shards=2`` across
forked workers — and asserts:

* the healthy machine meets its SLO (the verdict passes, and the plan
  actually dropped messages, so the pass is earned, not vacuous);
* the two same-seed runs produce byte-identical verdicts and result
  fingerprints (latency histograms, per-request statuses, admission
  counters, transport give-up set);
* both sharded runs reproduce the sequential one exactly — conservative
  sharding is bit-exact even for interleaved open-loop stepping, in
  process and across forked workers alike.

Any mismatch is a determinism regression: exit 1 with the differing
verdicts printed for triage.

Usage::

    PYTHONPATH=src python benchmarks/service_smoke.py [--drop-rate 0.01]
"""

from __future__ import annotations

import argparse
import json
import time


def run_once(drop_rate: float, shards: int = 1, parallel: bool = False):
    from repro.faults import FaultPlan
    from repro.harness import run_service
    from repro.service import SLOSpec, ServiceWorkload, SteadyArrivals

    wl = ServiceWorkload(seed=21, n_vertices=64)
    reqs = wl.requests(SteadyArrivals(gap_cycles=2500.0).times(80))
    t0 = time.perf_counter()
    rec = run_service(
        reqs,
        nodes=4,
        slo=SLOSpec(),
        faults=FaultPlan(seed=13, drop_rate=drop_rate),
        reliable=True,
        watchdog_cycles=100_000.0,
        shards=shards,
        parallel=parallel,
    )
    svc = rec.extra["service"]
    return svc, time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--drop-rate", type=float, default=0.01)
    args = parser.parse_args(argv)

    runs = {
        "first run": run_once(args.drop_rate),
        "same-seed rerun": run_once(args.drop_rate),
        "shards=2": run_once(args.drop_rate, shards=2),
        "shards=2 forked": run_once(args.drop_rate, shards=2, parallel=True),
    }
    first = runs["first run"][0]

    failures = []
    if first.fault_counts.get("msg_drop", 0) == 0:
        failures.append(
            "the fault plan dropped nothing — the soak is vacuous; "
            "raise --drop-rate"
        )
    if not first.verdict.passed:
        failures.append(
            f"healthy soak failed its SLO: {first.verdict.violations}"
        )
    for name, (svc, _seconds) in runs.items():
        if svc.fingerprint() != first.fingerprint():
            failures.append(f"{name} produced a different fingerprint")
        if svc.verdict.to_dict() != first.verdict.to_dict():
            failures.append(f"{name} produced a different verdict")

    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        for name, (svc, _seconds) in runs.items():
            print(f"--- {name} verdict ---")
            print(json.dumps(svc.verdict.to_dict(), indent=2))
        return 1
    print(
        f"service smoke OK: verdict passed with "
        f"{first.fault_counts.get('msg_drop', 0)} drops recovered "
        f"({first.status_counts['ok']} ok / "
        f"{first.status_counts['deadline_miss']} miss / "
        f"{first.status_counts['lost']} lost); "
        f"{', '.join(list(runs)[1:])} bit-identical ("
        + " / ".join(f"{seconds:.1f}s" for _svc, seconds in runs.values())
        + " host)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
