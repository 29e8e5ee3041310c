"""Golden digests of the benchmark's graph inputs.

sha256 over the int64 bytes of each array, recorded from the row-wise
ingestion and the per-sub-vertex split assembly that the array kernels
replaced: the RMAT stand-ins of hostbench's ``tc`` (scale 10),
``pagerank`` (13) and ``bfs`` (14) workloads at seed 7, and their
splits at the apps' default caps (PageRank 512, BFS 4096) with the
default split seed.  A kernel that changes one byte of an input changes
every result downstream.
"""

import hashlib

import numpy as np
import pytest

from repro.graph import rmat, split_and_shuffle


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()


CSR_DIGESTS = {
    10: "2fde3f72d9a7758d88802a43948529451f788aa745895226e969670a7bde52ab",
    13: "10f7faa1cbfe9fa7f5833da01f1f5dcafa2f5fe2a444b340bed4dca25ca3e86b",
    14: "af533cbc74bfcf09354c8abd8257a147d258a45458df6793b1415ea861c7590b",
}

#: scale 10's largest degree is under 512, so both of its splits only
#: shuffle (and are equal)
SPLIT_DIGESTS = {
    (10, 512): "2ed9311612861545a6673849db44742b25a7ca9426ded87dabb5d5f23b044338",
    (10, 4096): "2ed9311612861545a6673849db44742b25a7ca9426ded87dabb5d5f23b044338",
    (13, 512): "270e92445a153db30137f886ed16b16e141e16ac6aaf2848c8ae82df1f277a92",
    (13, 4096): "233e558bfd8316393f2dec97799babaa74e6e3f0701681aa000e62cbeebe6f66",
    (14, 512): "325d2dff471f1e7659e7f4158fcbe2bf79502486318eb2a51627eb2acd25fe78",
    (14, 4096): "6e390f28d968b016aa352c3362a1463e4b519b78fd2cb5bd59aa952d3b4d7d6f",
}


@pytest.mark.parametrize("scale", sorted(CSR_DIGESTS))
def test_rmat_csr_digest(scale):
    g = rmat(scale, seed=7)
    assert _digest(g.offsets, g.neighbors) == CSR_DIGESTS[scale]


@pytest.mark.parametrize("scale,max_degree", sorted(SPLIT_DIGESTS))
def test_rmat_split_digest(scale, max_degree):
    s = split_and_shuffle(rmat(scale, seed=7), max_degree)
    got = _digest(
        s.graph.offsets, s.graph.neighbors, s.rep, s.orig_degree,
        s.subs_offsets, s.sub_ids,
    )
    assert got == SPLIT_DIGESTS[(scale, max_degree)]
