"""CSR graph construction and invariants."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import CSRGraph, GraphError
from repro.graph.generators import rmat_edges


def _reference_from_edges(
    edges, n=None, symmetrize=False, dedup=True, drop_self_loops=True
):
    """The row-wise pipeline ``from_edges`` replaced: list, lexsort,
    row compares.  Kept as the reference the packed-key sort must equal."""
    arr = np.asarray(list(edges), dtype=np.int64)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if symmetrize and len(arr):
        arr = np.concatenate([arr, arr[:, ::-1]])
    if drop_self_loops and len(arr):
        arr = arr[arr[:, 0] != arr[:, 1]]
    if n is None:
        n = int(arr.max()) + 1 if len(arr) else 0
    elif len(arr) and arr.max() >= n:
        raise GraphError(f"edge endpoint exceeds n={n}")
    if len(arr):
        arr = arr[np.lexsort((arr[:, 1], arr[:, 0]))]
        if dedup:
            keep = np.ones(len(arr), dtype=bool)
            keep[1:] = np.any(arr[1:] != arr[:-1], axis=1)
            arr = arr[keep]
    degrees = np.bincount(arr[:, 0], minlength=n) if len(arr) else np.zeros(
        n, dtype=np.int64
    )
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    return CSRGraph(
        offsets, arr[:, 1].copy() if len(arr) else np.zeros(0, np.int64)
    )


def _reference_is_symmetric(g):
    """The dense-matrix definition ``is_symmetric`` replaced."""
    adj = np.zeros((g.n, g.n), dtype=bool)
    adj[np.repeat(np.arange(g.n), g.degrees), g.neighbors] = True
    fwd = set(map(tuple, zip(*np.nonzero(adj))))
    return all((b, a) in fwd for a, b in fwd)


class TestConstruction:
    def test_from_edges_basic(self):
        g = CSRGraph.from_edges([(0, 1), (0, 2), (1, 2)], n=3)
        assert g.n == 3 and g.m == 3
        assert list(g.out_neighbors(0)) == [1, 2]
        assert g.degree(1) == 1

    def test_symmetrize_doubles_edges(self):
        g = CSRGraph.from_edges([(0, 1)], n=2, symmetrize=True)
        assert g.m == 2
        assert list(g.out_neighbors(1)) == [0]

    def test_dedup_removes_duplicates(self):
        g = CSRGraph.from_edges([(0, 1), (0, 1), (0, 1)], n=2)
        assert g.m == 1

    def test_dedup_disabled_keeps_multiplicity(self):
        g = CSRGraph.from_edges([(0, 1), (0, 1)], n=2, dedup=False)
        assert g.m == 2

    def test_self_loops_dropped_by_default(self):
        g = CSRGraph.from_edges([(0, 0), (0, 1)], n=2)
        assert g.m == 1

    def test_neighbors_sorted_within_vertex(self):
        g = CSRGraph.from_edges([(0, 5), (0, 2), (0, 9)], n=10)
        assert list(g.out_neighbors(0)) == [2, 5, 9]

    def test_empty_graph(self):
        g = CSRGraph.from_edges([], n=4)
        assert g.n == 4 and g.m == 0
        assert g.max_degree == 0

    def test_n_inferred_from_edges(self):
        g = CSRGraph.from_edges([(0, 7)])
        assert g.n == 8

    def test_endpoint_exceeding_n_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph.from_edges([(0, 5)], n=3)

    def test_malformed_offsets_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 2, 1]), np.array([0, 1]))
        with pytest.raises(GraphError):
            CSRGraph(np.array([1, 2]), np.array([0]))

    def test_neighbor_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 1]), np.array([5]))

    def test_self_loops_dropped_before_n_is_inferred(self):
        assert CSRGraph.from_edges([(0, 1), (5, 5)]).n == 2
        kept = CSRGraph.from_edges([(0, 1), (5, 5)], drop_self_loops=False)
        assert kept.n == 6
        # a dropped loop is not range-checked either
        assert CSRGraph.from_edges([(0, 1), (5, 5)], n=3).n == 3

    @pytest.mark.parametrize(
        "edges",
        [[(-1, 2), (0, 1)], [(0, 1), (2, -1)], [(-1, -1), (0, 1)]],
    )
    def test_negative_endpoint_rejected(self, edges):
        # including a negative self-loop, which would otherwise be dropped
        with pytest.raises(GraphError, match="non-negative"):
            CSRGraph.from_edges(edges, n=3)
        with pytest.raises(GraphError, match="non-negative"):
            CSRGraph.from_edges(np.array(edges))

    def test_n_beyond_the_packed_key_bound_rejected(self):
        # rejected before any array of length n is allocated
        with pytest.raises(GraphError, match="2\\*\\*31"):
            CSRGraph.from_edges([], n=2**31 + 1)
        with pytest.raises(GraphError, match="2\\*\\*31"):
            CSRGraph.from_edges([(0, 2**31 + 1)])

    def test_array_ingestion_stays_lean(self):
        # one packed int64 key per edge: the row-list pipeline peaked at
        # 21.0 MiB on this input
        edges = rmat_edges(13, seed=7)
        tracemalloc.start()
        try:
            CSRGraph.from_edges(edges, symmetrize=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20


class TestTransforms:
    def test_reversed_transposes(self):
        g = CSRGraph.from_edges([(0, 1), (0, 2)], n=3)
        r = g.reversed()
        assert list(r.out_neighbors(1)) == [0]
        assert list(r.out_neighbors(2)) == [0]
        assert r.degree(0) == 0

    def test_double_reverse_is_identity(self):
        g = CSRGraph.from_edges([(0, 1), (2, 1), (1, 2)], n=3)
        rr = g.reversed().reversed()
        assert np.array_equal(rr.offsets, g.offsets)
        assert np.array_equal(rr.neighbors, g.neighbors)

    def test_is_symmetric(self):
        sym = CSRGraph.from_edges([(0, 1)], n=2, symmetrize=True)
        asym = CSRGraph.from_edges([(0, 1)], n=2)
        assert sym.is_symmetric()
        assert not asym.is_symmetric()

    @settings(max_examples=200, deadline=None)
    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=30
        ),
        mirror=st.booleans(),
        n_extra=st.integers(0, 2),
    )
    def test_is_symmetric_equals_the_dense_definition(
        self, edges, mirror, n_extra
    ):
        # multi-edges and self-loops kept; ``mirror`` makes symmetric
        # graphs common enough to exercise the True side
        if mirror:
            edges = edges + [(b, a) for a, b in edges]
        g = CSRGraph.from_edges(
            edges, n=8 + n_extra, dedup=False, drop_self_loops=False
        )
        assert g.is_symmetric() == _reference_is_symmetric(g)

    def test_edges_iterator(self):
        g = CSRGraph.from_edges([(0, 1), (1, 2)], n=3)
        assert sorted(g.edges()) == [(0, 1), (1, 2)]


@settings(max_examples=50)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=60
    )
)
def test_csr_invariants(edges):
    g = CSRGraph.from_edges(edges, n=16, symmetrize=True)
    # degrees sum to m, offsets monotone, neighbors in range
    assert g.degrees.sum() == g.m
    assert np.all(np.diff(g.offsets) >= 0)
    if g.m:
        assert g.neighbors.min() >= 0 and g.neighbors.max() < 16
    # symmetrized + dedup = symmetric simple graph
    assert g.is_symmetric()
    for v in range(16):
        nbrs = list(g.out_neighbors(v))
        assert nbrs == sorted(set(nbrs))  # sorted, no dups
        assert v not in nbrs  # no self loops


_ENDPOINT = st.integers(0, 9)


@st.composite
def _ingestion_cases(draw):
    edges = draw(st.lists(st.tuples(_ENDPOINT, _ENDPOINT), max_size=40))
    if edges and draw(st.booleans()):
        # duplicates of drawn edges
        edges += draw(st.lists(st.sampled_from(edges), max_size=10))
    if draw(st.booleans()):
        # a self-loop as the largest id: n inference must ignore it
        # when loops are dropped
        top = max((max(e) for e in edges), default=0)
        edges.append((top + draw(st.integers(1, 3)),) * 2)
    top = max((max(e) for e in edges), default=-1)
    n = draw(st.one_of(st.none(), st.integers(top + 1, top + 4)))
    flags = dict(
        symmetrize=draw(st.booleans()),
        dedup=draw(st.booleans()),
        drop_self_loops=draw(st.booleans()),
    )
    return edges, n, flags


@settings(max_examples=300, deadline=None)
@given(case=_ingestion_cases(), as_array=st.booleans())
def test_from_edges_equals_the_row_pipeline(case, as_array):
    edges, n, flags = case
    want = _reference_from_edges(edges, n=n, **flags)
    src = np.array(edges, dtype=np.int64).reshape(-1, 2) if as_array else edges
    got = CSRGraph.from_edges(src, n=n, **flags)
    assert np.array_equal(got.offsets, want.offsets)
    assert np.array_equal(got.neighbors, want.neighbors)
    assert got.offsets.dtype == got.neighbors.dtype == np.int64


@settings(max_examples=100, deadline=None)
@given(case=_ingestion_cases())
def test_from_edges_range_errors_match_the_row_pipeline(case):
    # an n too small for the kept endpoints raises in both
    edges, _n, flags = case
    kept = [e for e in edges if not flags["drop_self_loops"] or e[0] != e[1]]
    if not kept:
        return
    n = max(max(e) for e in kept)
    with pytest.raises(GraphError):
        _reference_from_edges(edges, n=n, **flags)
    with pytest.raises(GraphError):
        CSRGraph.from_edges(edges, n=n, **flags)
