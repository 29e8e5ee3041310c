"""Seeded request-stream generation: the service's query/update mix.

Each request carries an id, a class, an arrival tick, and a deadline;
payloads are drawn by counter-keyed splitmix64 (no shared RNG stream),
so the full request stream is a pure function of ``(seed, arrivals)`` —
the reproducibility contract the SLO verdicts rest on.

The four request classes mirror the paper's dynamic-graph workloads:

* ``update`` — one streamed edge record, ingested into the live
  Parallel Graph *and* evaluated incrementally against the registered
  partial-match patterns (the §5.2.4 pipeline, reused verbatim);
* ``exact`` — an exact-match point lookup of one edge record;
* ``multihop`` — a bounded k-hop traversal over the live adjacency
  index;
* ``partial`` — a probe of the partial-match state table ("is this
  pattern open at stage s on vertex v?").

Queries are biased toward vertices earlier updates touched, so a live
mutating graph serves most of them from real state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.apps.partial_match import Pattern

from .arrivals import _mix_counters

#: request classes, in the order verdicts and reports enumerate them.
REQUEST_CLASSES = ("update", "exact", "multihop", "partial")

_KIND_CLASS = 0x636C6173  # "clas"
_KIND_FIELD = 0x666C6400  # "fld"

#: default per-class deadlines in cycles (~tens of microseconds at the
#: 2 GHz model clock) — generous enough that a healthy machine makes
#: them, tight enough that sustained queueing or a retransmit storm
#: shows up as misses.
DEFAULT_DEADLINES: Mapping[str, float] = {
    "update": 150_000.0,
    "exact": 100_000.0,
    "multihop": 250_000.0,
    "partial": 100_000.0,
}

#: default pattern set for the partial-match side of the mix.
DEFAULT_PATTERNS: Tuple[Pattern, ...] = (
    Pattern(0, (0, 1)),
    Pattern(1, (1, 2, 0)),
)


@dataclass(frozen=True)
class Request:
    """One tagged service request (id, class, arrival, deadline, payload)."""

    req_id: int
    cls: str
    t_arrival: float
    deadline_cycles: float
    payload: Tuple[Any, ...]


@dataclass(frozen=True)
class ServiceMix:
    """Relative class weights plus per-class knobs for the generator."""

    update_weight: int = 4
    exact_weight: int = 2
    multihop_weight: int = 1
    partial_weight: int = 1
    multihop_hops: int = 2
    deadline_cycles: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_DEADLINES)
    )

    def weights(self) -> Tuple[Tuple[str, int], ...]:
        """(class, weight) pairs in canonical order, zero-weight dropped."""
        pairs = (
            ("update", self.update_weight),
            ("exact", self.exact_weight),
            ("multihop", self.multihop_weight if self.multihop_hops > 0 else 0),
            ("partial", self.partial_weight),
        )
        out = tuple((cls, w) for cls, w in pairs if w > 0)
        if not out:
            raise ValueError("at least one request class needs weight > 0")
        return out


class ServiceWorkload:
    """Deterministic request-stream generator for one service run."""

    def __init__(
        self,
        seed: int = 0,
        n_vertices: int = 64,
        n_etypes: int = 3,
        patterns: Sequence[Pattern] = DEFAULT_PATTERNS,
        mix: ServiceMix = None,
    ) -> None:
        if n_vertices < 1 or n_etypes < 1:
            raise ValueError("n_vertices and n_etypes must be positive")
        self.seed = int(seed)
        self.n_vertices = int(n_vertices)
        self.n_etypes = int(n_etypes)
        self.patterns = tuple(patterns)
        self.mix = mix if mix is not None else ServiceMix()

    def requests(self, arrivals: Sequence[float]) -> List[Request]:
        """Materialize one :class:`Request` per arrival tick.

        Every counter-keyed draw (class, then three payload fields) is
        computed for the whole stream up front as a ``uint64`` array;
        one sequential pass then threads the touched-vertex state through
        the requests, reading raw draws with ``.item`` so payloads hold
        Python ints.
        """
        mix = self.mix
        weights = mix.weights()
        deadlines = mix.deadline_cycles
        patterns = self.patterns
        seed = self.seed
        n = len(arrivals)
        bounds = np.cumsum([w for _cls, w in weights], dtype=np.uint64)
        cls_of = np.searchsorted(
            bounds, _mix_counters(seed, _KIND_CLASS, n) % bounds[-1],
            side="right",
        ).tolist()
        names = [cls for cls, _w in weights]
        f0, f1, f2 = (
            _mix_counters(seed, _KIND_FIELD + which, n) for which in range(3)
        )
        n_v = np.uint64(self.n_vertices)
        v0 = f0 % n_v
        v1 = f1 % n_v
        etype = (f2 % np.uint64(self.n_etypes)).tolist()
        pattern_id: List[int] = []
        stage: List[int] = []
        if patterns:
            which = f1 % np.uint64(len(patterns))
            pattern_id = [patterns[j].pattern_id for j in which.tolist()]
            # open state exists for stages 0..len(types)-2; the final
            # stage alerts instead of storing
            n_stages = np.array(
                [max(1, len(p.types) - 1) for p in patterns], dtype=np.uint64
            )
            stage = (f2 % n_stages[which]).tolist()
        hops = mix.multihop_hops
        #: state earlier updates touched — queries aim here first so
        #: they exercise live state rather than cold misses.
        touched: List[int] = []
        touched_edges: List[Tuple[int, int]] = []
        out: List[Request] = []
        for i, t in enumerate(arrivals):
            cls = names[cls_of[i]]
            if cls == "update":
                src, dst = v0.item(i), v1.item(i)
                payload = (src, dst, etype[i], i)
                touched.append(dst)
                touched_edges.append((src, dst))
            elif cls == "exact":
                if touched_edges:
                    payload = touched_edges[f0.item(i) % len(touched_edges)]
                else:
                    payload = (v0.item(i), v1.item(i))
            else:
                if touched:
                    vid = touched[f0.item(i) % len(touched)]
                else:
                    vid = v0.item(i)
                if cls == "multihop":
                    payload = (vid, hops)
                else:  # partial
                    payload = (pattern_id[i], stage[i], vid)
            out.append(
                Request(
                    req_id=i,
                    cls=cls,
                    t_arrival=float(t),
                    deadline_cycles=float(deadlines[cls]),
                    payload=payload,
                )
            )
        return out

    def class_counts(self, requests: Sequence[Request]) -> Dict[str, int]:
        """Requests per class — for reports and sanity checks."""
        counts = {cls: 0 for cls in REQUEST_CLASSES}
        for req in requests:
            counts[req.cls] += 1
        return counts
