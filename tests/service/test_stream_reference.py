"""The request stream's array draws equal the one-draw-at-a-time recipe.

``PoissonArrivals.times`` and ``ServiceWorkload.requests`` compute their
counter-keyed splitmix64 draws as ``uint64`` arrays.  The scalar recipe
they replaced is kept here as the reference: the streams must be equal
element for element, payload values must stay Python ints, and the
benchmark's seed-7 ``service_soak`` stream keeps the digest recorded
from the scalar code.
"""

import hashlib
import math

from hypothesis import given, settings, strategies as st

from repro.apps.partial_match import Pattern
from repro.service import (
    PoissonArrivals,
    Request,
    ServiceMix,
    ServiceWorkload,
)

_MASK64 = (1 << 64) - 1
_INV_2_53 = 1.0 / (1 << 53)
_KIND_CLASS = 0x636C6173
_KIND_FIELD = 0x666C6400


def _mix(seed, a, b):
    x = (seed ^ (a * 0x9E3779B97F4A7C15) ^ (b * 0xBF58476D1CE4E5B9)) & _MASK64
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def _reference_times(arrivals, n):
    t = arrivals.start_cycles
    out = []
    for k in range(n):
        u = ((_mix(arrivals.seed, 0x706F6973, k) >> 11) + 1) * _INV_2_53
        t += -arrivals.mean_gap_cycles * math.log(u)
        out.append(t)
    return out


def _reference_requests(wl, arrivals):
    def draw(i, which):
        return _mix(wl.seed, _KIND_FIELD + which, i)

    mix = wl.mix
    weights = mix.weights()
    total_w = sum(w for _cls, w in weights)
    n_v, n_e = wl.n_vertices, wl.n_etypes
    touched, touched_edges, out = [], [], []
    for i, t in enumerate(arrivals):
        r = _mix(wl.seed, _KIND_CLASS, i) % total_w
        cls = weights[-1][0]
        for name, w in weights:
            if r < w:
                cls = name
                break
            r -= w
        if cls == "update":
            src, dst = draw(i, 0) % n_v, draw(i, 1) % n_v
            payload = (src, dst, draw(i, 2) % n_e, i)
            touched.append(dst)
            touched_edges.append((src, dst))
        elif cls == "exact":
            if touched_edges:
                payload = touched_edges[draw(i, 0) % len(touched_edges)]
            else:
                payload = (draw(i, 0) % n_v, draw(i, 1) % n_v)
        else:
            if touched:
                vid = touched[draw(i, 0) % len(touched)]
            else:
                vid = draw(i, 0) % n_v
            if cls == "multihop":
                payload = (vid, mix.multihop_hops)
            else:
                p = wl.patterns[draw(i, 1) % len(wl.patterns)]
                stage = draw(i, 2) % max(1, len(p.types) - 1)
                payload = (p.pattern_id, stage, vid)
        out.append(
            Request(i, cls, float(t), float(mix.deadline_cycles[cls]), payload)
        )
    return out


#: seeds past 64 bits and below zero exercise the Python-int prefix fold
_SEEDS = st.one_of(st.integers(-8, 8), st.integers(-(2**70), 2**70))


@settings(max_examples=150, deadline=None)
@given(
    seed=_SEEDS,
    mean=st.floats(0.5, 1e6),
    start=st.floats(0.0, 1e6),
    n=st.integers(0, 80),
)
def test_poisson_times_equal_the_scalar_recipe(seed, mean, start, n):
    arrivals = PoissonArrivals(mean, seed=seed, start_cycles=start)
    got = arrivals.times(n)
    assert got == _reference_times(arrivals, n)
    assert all(type(t) is float for t in got)


_PATTERNS = st.lists(
    st.builds(
        Pattern,
        st.integers(0, 5),
        st.lists(st.integers(0, 3), min_size=1, max_size=4).map(tuple),
    ),
    min_size=1,
    max_size=3,
)


@st.composite
def _mixes(draw):
    """Zero-weight classes and ``multihop_hops=0`` included; at least
    one class keeps a positive effective weight."""
    weights = [draw(st.integers(0, 3)) for _ in range(4)]
    hops = draw(st.integers(0, 3))
    if not any(weights[:2] + weights[3:]) and not (weights[2] and hops):
        weights[draw(st.sampled_from([0, 1, 3]))] = 1
    return ServiceMix(*weights, multihop_hops=hops)


@settings(max_examples=200, deadline=None)
@given(
    seed=_SEEDS,
    n_vertices=st.integers(1, 40),
    n_etypes=st.integers(1, 4),
    patterns=_PATTERNS,
    mix=_mixes(),
    arrivals=st.lists(st.floats(0.0, 1e9), max_size=80),
)
def test_requests_equal_the_scalar_recipe(
    seed, n_vertices, n_etypes, patterns, mix, arrivals
):
    wl = ServiceWorkload(seed, n_vertices, n_etypes, patterns, mix)
    got = wl.requests(arrivals)
    assert got == _reference_requests(wl, arrivals)
    # equal *and* the same types: payloads reach the simulator as
    # message operands, where a NumPy scalar is not an int
    for req in got:
        assert all(type(x) is int for x in req.payload), req


#: sha256 of the seed-7 ``service_soak`` stream (hostbench's inputs:
#: workload seed 21, 2,048 vertices, 48,000 Poisson arrivals with mean
#: gap 800 cycles under seed 5), recorded from the scalar recipe
SOAK_STREAM_DIGEST = (
    "81cda5be4896875eddbf60435c0641dfe6e66c482ba3481ee07fac7be0ec4a26"
)


def test_soak_stream_digest():
    times = PoissonArrivals(mean_gap_cycles=800.0, seed=5).times(48_000)
    reqs = ServiceWorkload(seed=21, n_vertices=2048).requests(times)
    rows = [
        (r.req_id, r.cls, r.t_arrival, r.deadline_cycles, r.payload)
        for r in reqs
    ]
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == SOAK_STREAM_DIGEST
