"""Vertex splitting: the ``split_and_shuffle`` preprocessing transform.

High-degree vertices serialize push-based algorithms (one map task walks
the whole neighbor list).  The artifact's ``split_and_shuffle`` tool caps
the maximum degree by splitting each vertex into sub-vertices — "transforms
the graph to a maximum degree of 1024, yet yields the correct result for
the original graph" (§5.2.1; PR uses max degree 512, BFS 4096).

A vertex ``v`` of degree ``d`` becomes ``ceil(d / max_degree)``
sub-vertices, each owning a contiguous slice of ``v``'s neighbor list.
Neighbor entries remain *original* vertex IDs: sources are split (task
parallelism), destinations are not (reductions stay keyed by real
vertices).  Each sub-vertex also records the original vertex and its
original total degree so PageRank can divide contributions correctly.

The "shuffle" half permutes sub-vertex order: under the default Block
binding, contiguous key blocks go to single lanes, so shuffling spreads a
hub's sub-vertices across lanes — load balance for skewed graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .csr import CSRGraph, GraphError


@dataclass
class SplitGraph:
    """A degree-capped graph plus the bookkeeping to undo the split."""

    #: the split topology: sub-vertex sources, original-ID destinations
    graph: CSRGraph
    #: sub-vertex -> original vertex ID
    rep: np.ndarray
    #: original vertex -> its total degree in the input graph
    orig_degree: np.ndarray
    #: CSR over originals: sub-vertices of original ``v`` are
    #: ``sub_ids[subs_offsets[v] : subs_offsets[v+1]]``
    subs_offsets: np.ndarray
    sub_ids: np.ndarray
    #: the split parameter used
    max_degree: int

    @property
    def n_orig(self) -> int:
        return len(self.orig_degree)

    @property
    def n_sub(self) -> int:
        return self.graph.n

    def subs_of(self, v: int) -> np.ndarray:
        return self.sub_ids[self.subs_offsets[v] : self.subs_offsets[v + 1]]

    def stats(self) -> Dict[str, float]:
        """The ``-s`` statistics of the artifact tool."""
        degs = self.graph.degrees
        return {
            "n_orig": self.n_orig,
            "n_sub": self.n_sub,
            "m": self.graph.m,
            "max_degree_before": int(self.orig_degree.max()) if self.n_orig else 0,
            "max_degree_after": int(degs.max()) if self.n_sub else 0,
            "split_vertices": int(
                np.sum(np.diff(self.subs_offsets) > 1)
            ),
        }


def split_and_shuffle(
    graph: CSRGraph,
    max_degree: int,
    seed: Optional[int] = 0,
    shuffle: bool = True,
) -> SplitGraph:
    """Apply the degree-cap split; ``shuffle=False`` keeps original order.

    ``seed=None`` with ``shuffle=True`` is rejected — reproducibility is a
    feature, not an accident.  The split neighbor list is one gather from
    ``graph.neighbors`` (no per-sub-vertex loop), so the transform costs
    a few array passes over ``n`` and ``m``.
    """
    if max_degree < 1:
        raise GraphError("max degree must be >= 1")
    if shuffle and seed is None:
        raise GraphError("shuffling requires a seed")
    n = graph.n
    degrees = graph.degrees
    n_subs_per = np.maximum(1, -(-degrees // max_degree))  # ceil, min 1
    n_sub = int(n_subs_per.sum())

    # Build per-sub metadata in original order first.
    rep = np.repeat(np.arange(n, dtype=np.int64), n_subs_per)
    first_sub = np.cumsum(n_subs_per) - n_subs_per
    sub_index_within = np.arange(n_sub, dtype=np.int64) - first_sub[rep]
    # sub s owns slice [lo, hi) of rep(s)'s neighbor run
    slice_lo = sub_index_within * max_degree
    slice_hi = np.minimum(slice_lo + max_degree, degrees[rep])
    sub_degrees = np.maximum(0, slice_hi - slice_lo)

    order = np.arange(n_sub, dtype=np.int64)
    if shuffle and n_sub > 1:
        rng = np.random.default_rng(seed)
        rng.shuffle(order)

    # Assemble the split CSR in shuffled order.  Output position j of new
    # sub-vertex s reads input position start(s) + (j - offsets[s]).
    new_degrees = sub_degrees[order]
    offsets = np.zeros(n_sub + 1, dtype=np.int64)
    np.cumsum(new_degrees, out=offsets[1:])
    starts = (graph.offsets[rep] + slice_lo)[order]
    gather = np.repeat(starts - offsets[:-1], new_degrees)
    gather += np.arange(offsets[-1], dtype=np.int64)
    neighbors = graph.neighbors[gather]

    new_rep = rep[order]
    # CSR over originals -> sub IDs (in the shuffled numbering).
    sort_by_rep = np.argsort(new_rep, kind="stable")
    sub_ids = sort_by_rep.astype(np.int64)
    counts = np.bincount(new_rep, minlength=n)
    subs_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=subs_offsets[1:])

    split = SplitGraph(
        graph=CSRGraph(offsets, neighbors),
        rep=new_rep,
        orig_degree=degrees.copy(),
        subs_offsets=subs_offsets,
        sub_ids=sub_ids,
        max_degree=max_degree,
    )
    assert split.graph.max_degree <= max_degree
    return split


def validate_split(split: SplitGraph, original: CSRGraph) -> None:
    """Check the split partitions the original edge multiset (test helper)."""
    got: Dict[tuple, int] = {}
    for s in range(split.n_sub):
        v = int(split.rep[s])
        for u in split.graph.out_neighbors(s):
            got[(v, int(u))] = got.get((v, int(u)), 0) + 1
    want: Dict[tuple, int] = {}
    for v, u in original.edges():
        want[(v, u)] = want.get((v, u), 0) + 1
    if got != want:
        raise GraphError("split does not preserve the edge multiset")
