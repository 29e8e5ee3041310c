"""Vertex splitting: degree cap, edge preservation, shuffle behavior."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import (
    CSRGraph,
    GraphError,
    rmat,
    split_and_shuffle,
    star_graph,
    validate_split,
)


def _reference_split(graph, max_degree, seed=0, shuffle=True):
    """The per-sub-vertex assembly loop ``split_and_shuffle`` replaced:
    ``(offsets, neighbors, rep, sub_ids, subs_offsets)``."""
    n = graph.n
    degrees = graph.degrees
    n_subs_per = np.maximum(1, -(-degrees // max_degree))
    n_sub = int(n_subs_per.sum())
    rep = np.repeat(np.arange(n, dtype=np.int64), n_subs_per)
    sub_index_within = np.concatenate(
        [np.arange(k, dtype=np.int64) for k in n_subs_per]
    ) if n else np.zeros(0, np.int64)
    slice_lo = sub_index_within * max_degree
    slice_hi = np.minimum(slice_lo + max_degree, degrees[rep])
    sub_degrees = np.maximum(0, slice_hi - slice_lo)
    order = np.arange(n_sub, dtype=np.int64)
    if shuffle and n_sub > 1:
        np.random.default_rng(seed).shuffle(order)
    new_degrees = sub_degrees[order]
    offsets = np.zeros(n_sub + 1, dtype=np.int64)
    np.cumsum(new_degrees, out=offsets[1:])
    neighbors = np.empty(int(new_degrees.sum()), dtype=np.int64)
    for new_id, old_sub in enumerate(order):
        v = rep[old_sub]
        lo = graph.offsets[v] + slice_lo[old_sub]
        hi = graph.offsets[v] + slice_hi[old_sub]
        neighbors[offsets[new_id] : offsets[new_id + 1]] = graph.neighbors[lo:hi]
    new_rep = rep[order]
    sub_ids = np.argsort(new_rep, kind="stable").astype(np.int64)
    subs_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(new_rep, minlength=n), out=subs_offsets[1:])
    return offsets, neighbors, new_rep, sub_ids, subs_offsets


class TestSplitCorrectness:
    def test_degree_capped(self, rmat_s7):
        s = split_and_shuffle(rmat_s7, 16)
        assert s.graph.max_degree <= 16

    def test_edge_multiset_preserved(self, rmat_s7):
        validate_split(split_and_shuffle(rmat_s7, 16), rmat_s7)

    def test_sub_counts(self):
        g = star_graph(33)  # hub degree 32
        s = split_and_shuffle(g, 10)
        assert len(s.subs_of(0)) == 4  # ceil(32/10)
        assert len(s.subs_of(1)) == 1

    def test_zero_degree_vertex_keeps_one_sub(self):
        g = CSRGraph.from_edges([(0, 1)], n=3)  # vertex 2 isolated
        s = split_and_shuffle(g, 4)
        assert len(s.subs_of(2)) == 1
        assert s.n_sub == 3

    def test_rep_and_orig_degree_consistent(self, rmat_s7):
        s = split_and_shuffle(rmat_s7, 16)
        for sub in range(s.n_sub):
            v = int(s.rep[sub])
            assert s.orig_degree[v] == rmat_s7.degree(v)

    def test_subs_of_partitions_sub_ids(self, rmat_s7):
        s = split_and_shuffle(rmat_s7, 16)
        all_subs = sorted(
            int(x) for v in range(s.n_orig) for x in s.subs_of(v)
        )
        assert all_subs == list(range(s.n_sub))

    def test_no_split_when_under_cap(self, rmat_s7):
        s = split_and_shuffle(rmat_s7, 10_000, shuffle=False)
        assert s.n_sub == rmat_s7.n
        assert np.array_equal(s.graph.neighbors, rmat_s7.neighbors)

    def test_stats(self):
        g = star_graph(20)
        s = split_and_shuffle(g, 5)
        st_ = s.stats()
        assert st_["max_degree_before"] == 19
        assert st_["max_degree_after"] <= 5
        assert st_["split_vertices"] == 1


class TestShuffle:
    def test_shuffle_is_seeded(self, rmat_s7):
        a = split_and_shuffle(rmat_s7, 16, seed=1)
        b = split_and_shuffle(rmat_s7, 16, seed=1)
        c = split_and_shuffle(rmat_s7, 16, seed=2)
        assert np.array_equal(a.rep, b.rep)
        assert not np.array_equal(a.rep, c.rep)

    def test_shuffle_disperses_hub_subs(self):
        """The point of shuffling: a hub's sub-vertices land away from
        each other so Block binding spreads them over lanes."""
        g = star_graph(1025)  # hub degree 1024
        s = split_and_shuffle(g, 8, seed=0)
        hub_positions = np.sort(s.subs_of(0))
        # 128 hub subs among 1153 total; contiguous would span 128
        span = hub_positions[-1] - hub_positions[0]
        assert span > s.n_sub // 2

    def test_unshuffled_keeps_original_order(self, rmat_s7):
        s = split_and_shuffle(rmat_s7, 16, shuffle=False)
        assert np.all(np.diff(s.rep) >= 0)

    def test_shuffle_without_seed_rejected(self, rmat_s7):
        with pytest.raises(GraphError):
            split_and_shuffle(rmat_s7, 16, seed=None, shuffle=True)

    def test_bad_max_degree_rejected(self, rmat_s7):
        with pytest.raises(GraphError):
            split_and_shuffle(rmat_s7, 0)


@settings(max_examples=25, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=80
    ),
    max_degree=st.integers(1, 20),
    seed=st.integers(0, 3),
)
def test_split_properties(edges, max_degree, seed):
    """For any graph and cap: degree capped, multiset preserved, PR-relevant
    metadata consistent."""
    g = CSRGraph.from_edges(edges, n=13, symmetrize=True)
    s = split_and_shuffle(g, max_degree, seed=seed)
    assert s.graph.max_degree <= max_degree
    validate_split(s, g)
    # every sub's neighbors are a slice of its rep's neighbor multiset
    assert int(s.graph.degrees.sum()) == g.m


@settings(max_examples=150, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=80
    ),
    n_extra=st.integers(0, 3),
    dedup=st.booleans(),
    max_degree=st.integers(1, 6),
    seed=st.integers(0, 3),
    shuffle=st.booleans(),
)
def test_split_equals_the_assembly_loop(
    edges, n_extra, dedup, max_degree, seed, shuffle
):
    """The one-gather assembly equals the per-sub-vertex loop, on graphs
    with multi-edges, isolated vertices and hubs over the cap."""
    g = CSRGraph.from_edges(edges, n=13 + n_extra, dedup=dedup)
    s = split_and_shuffle(g, max_degree, seed=seed, shuffle=shuffle)
    offsets, neighbors, rep, sub_ids, subs_offsets = _reference_split(
        g, max_degree, seed=seed, shuffle=shuffle
    )
    assert np.array_equal(s.graph.offsets, offsets)
    assert np.array_equal(s.graph.neighbors, neighbors)
    assert np.array_equal(s.rep, rep)
    assert np.array_equal(s.sub_ids, sub_ids)
    assert np.array_equal(s.subs_offsets, subs_offsets)
    assert np.array_equal(s.orig_degree, g.degrees)
    validate_split(s, g)


def test_split_of_the_empty_graph():
    s = split_and_shuffle(CSRGraph.from_edges([], n=0), 4)
    assert s.n_sub == 0 and s.graph.m == 0 and s.n_orig == 0
