"""Latency SLOs and machine-checkable soak verdicts.

A soak run ends in a verdict, not a plot: fixed bounds (per-class p99,
deadline-miss fraction, lost requests, shed fraction) are checked
against the run's measured distributions and the result is a plain
``passed`` flag plus a deterministic, ordered violation list.  Verdicts
are built only from bit-reproducible inputs — LogHistogram bucket
bounds (powers of two), integer counters, and exact cycle counts — so
two runs of the same seed produce byte-identical verdicts, including
across shard counts.  That is what makes a chaos soak CI-checkable:
"the machine under 1% drops still meets the SLO" is an equality test.

Timeout semantics: a request that completes after its deadline is a
``deadline_miss`` (it still has a latency sample); a request that never
completes by the end of the drain grace window — give-up'd transport,
fail-stopped node, shed-free overload — is ``lost`` and has none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.observe.histogram import LogHistogram

from .workload import REQUEST_CLASSES

#: default per-class p99 bounds in cycles — sized for the scaled bench
#: machine under moderate load; tighten per scenario.
DEFAULT_P99_CYCLES: Mapping[str, float] = {
    "update": 65_536.0,
    "exact": 65_536.0,
    "multihop": 131_072.0,
    "partial": 65_536.0,
}


@dataclass(frozen=True)
class SLOSpec:
    """Bounds a service run must meet to pass.

    ``p99_cycles`` maps request classes to latency-bound cycles (a class
    absent from the map is unbounded).  The fractions are over admitted
    requests; ``max_transport_give_ups`` of ``None`` leaves give-ups
    reported but unchecked (lost requests catch their damage anyway).
    """

    p99_cycles: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_P99_CYCLES)
    )
    max_deadline_miss_frac: float = 0.01
    max_lost: int = 0
    max_shed_frac: float = 0.05
    max_transport_give_ups: Optional[int] = None

    def evaluate(
        self,
        latency_hist: Mapping[str, LogHistogram],
        status_counts: Mapping[str, int],
        requests_shed: int,
        requests_total: int,
        transport_give_ups: int,
    ) -> "SLOVerdict":
        """Check the bounds; returns the machine-checkable verdict."""
        violations: List[str] = []
        per_class: Dict[str, Dict[str, Any]] = {}
        for cls in REQUEST_CLASSES:
            hist = latency_hist.get(cls)
            if hist is None or hist.count == 0:
                continue
            p50 = hist.quantile_bound(0.5)
            p99 = hist.quantile_bound(0.99)
            per_class[cls] = {
                "count": hist.count,
                "p50_cycles": p50,
                "p99_cycles": p99,
                "max_cycles": hist.max,
            }
            bound = self.p99_cycles.get(cls)
            if bound is not None and p99 > bound:
                violations.append(
                    f"{cls}: p99 {p99:.0f} cycles exceeds bound {bound:.0f}"
                )
        completed = status_counts.get("ok", 0) + status_counts.get(
            "deadline_miss", 0
        )
        admitted = completed + status_counts.get("lost", 0)
        misses = status_counts.get("deadline_miss", 0)
        miss_frac = misses / admitted if admitted else 0.0
        if miss_frac > self.max_deadline_miss_frac:
            violations.append(
                f"deadline misses {misses}/{admitted} "
                f"({miss_frac:.4f}) exceed max_deadline_miss_frac "
                f"{self.max_deadline_miss_frac}"
            )
        lost = status_counts.get("lost", 0)
        if lost > self.max_lost:
            violations.append(
                f"{lost} request(s) never completed (lost) "
                f"exceeds max_lost {self.max_lost}"
            )
        shed_frac = requests_shed / requests_total if requests_total else 0.0
        if shed_frac > self.max_shed_frac:
            violations.append(
                f"shed {requests_shed}/{requests_total} "
                f"({shed_frac:.4f}) exceeds max_shed_frac "
                f"{self.max_shed_frac}"
            )
        if (
            self.max_transport_give_ups is not None
            and transport_give_ups > self.max_transport_give_ups
        ):
            violations.append(
                f"transport gave up on {transport_give_ups} delivery(ies), "
                f"max allowed {self.max_transport_give_ups}"
            )
        return SLOVerdict(
            passed=not violations,
            violations=violations,
            per_class=per_class,
            counters={
                "requests_total": requests_total,
                "requests_admitted": admitted,
                "requests_shed": requests_shed,
                "deadline_misses": misses,
                "lost": lost,
                "transport_give_ups": transport_give_ups,
            },
        )


@dataclass
class SLOVerdict:
    """The outcome of one soak: pass/fail plus the evidence.

    ``violations`` is ordered deterministically (per-class bounds in
    canonical class order, then the global bounds); :meth:`to_dict`
    is the JSON soak-verdict format benchmarks persist.
    """

    passed: bool
    violations: List[str]
    per_class: Dict[str, Dict[str, Any]]
    counters: Dict[str, int]

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form for JSON artifacts."""
        return {
            "passed": self.passed,
            "violations": list(self.violations),
            "per_class": {
                cls: dict(m) for cls, m in self.per_class.items()
            },
            "counters": dict(self.counters),
        }


def histogram_fingerprint(
    latency_hist: Mapping[str, LogHistogram]
) -> Tuple[Tuple[str, Tuple[Tuple[int, int], ...], int, float, float], ...]:
    """Canonical, hashable form of the per-class latency histograms.

    Bucket maps are sorted and paired with the exact count/total/max, so
    two runs agree on this value iff their latency distributions are
    bit-identical — the equality the reproducibility tests assert.
    """
    out = []
    for cls in REQUEST_CLASSES:
        hist = latency_hist.get(cls)
        if hist is None:
            continue
        out.append(
            (
                cls,
                tuple(sorted(hist.buckets.items())),
                hist.count,
                hist.total,
                hist.max,
            )
        )
    return tuple(out)
