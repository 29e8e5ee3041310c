"""CSR graphs: the vertex-array + neighbor-list representation.

All of the paper's applications consume graphs as two arrays (§4.1.1): a
*vertex array* (per-vertex metadata including a pointer into the neighbor
list and a degree) and a *neighbor list* (the concatenated destination
vertices).  :class:`CSRGraph` is the host-side form; the apps copy it into
``DRAMmalloc`` regions for simulation.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Tuple

import numpy as np


class GraphError(ValueError):
    """Raised for malformed graph construction inputs."""


#: largest ``n`` whose packed edge keys ``src * n + dst`` fit in int64.
_MAX_PACKED_N = 1 << 31


class CSRGraph:
    """An immutable directed graph in compressed-sparse-row form."""

    def __init__(self, offsets: np.ndarray, neighbors: np.ndarray) -> None:
        offsets = np.asarray(offsets, dtype=np.int64)
        neighbors = np.asarray(neighbors, dtype=np.int64)
        if offsets.ndim != 1 or len(offsets) < 1:
            raise GraphError("offsets must be a 1-D array with >= 1 entry")
        if offsets[0] != 0 or offsets[-1] != len(neighbors):
            raise GraphError("offsets must start at 0 and end at |E|")
        if np.any(np.diff(offsets) < 0):
            raise GraphError("offsets must be non-decreasing")
        n = len(offsets) - 1
        if len(neighbors) and (neighbors.min() < 0 or neighbors.max() >= n):
            raise GraphError("neighbor IDs out of range")
        self.offsets = offsets
        self.neighbors = neighbors

    # -- construction -----------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[int, int]],
        n: int | None = None,
        symmetrize: bool = False,
        dedup: bool = True,
        drop_self_loops: bool = True,
    ) -> "CSRGraph":
        """Build from an edge list (the preprocessing pipeline's converter).

        ``symmetrize`` inserts the reverse of every edge (the artifact's
        default for undirected inputs); ``dedup`` removes duplicates after
        sorting by source then destination (what the ``tsv`` tool does).
        Self-loops are dropped (``drop_self_loops``) before ``n`` is
        inferred or checked, so a dropped loop never widens the graph.

        An ``(m, 2)`` array is used as it is; any other iterable of pairs
        is materialized once.  Each edge becomes one packed ``int64`` key
        ``src * n + dst``, so ordering, symmetrizing and deduplicating is
        one sort of those keys; packing needs ``n * n < 2**63``, hence the
        ``n <= 2**31`` bound.  Negative endpoints and endpoints ``>= n``
        raise :class:`GraphError`.
        """
        arr = np.asarray(
            edges if isinstance(edges, np.ndarray) else list(edges),
            dtype=np.int64,
        )
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise GraphError("edges must be (src, dst) pairs")
        if len(arr) and arr.min() < 0:
            raise GraphError("edge endpoints must be non-negative")
        src, dst = arr[:, 0], arr[:, 1]
        if drop_self_loops:
            keep = src != dst
            src, dst = src[keep], dst[keep]
        top = int(max(src.max(), dst.max())) if len(src) else -1
        if n is None:
            n = top + 1
        elif top >= n:
            raise GraphError(f"edge endpoint exceeds n={n}")
        if n > _MAX_PACKED_N:
            raise GraphError(f"n={n} exceeds the packed-key bound 2**31")
        keys = src * n + dst
        if symmetrize:
            keys = np.concatenate([keys, dst * n + src])
        keys.sort()
        if dedup and len(keys):
            keys = keys[np.r_[True, keys[1:] != keys[:-1]]]
        src, dst = np.divmod(keys, n) if n else (keys, keys)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
        return cls(offsets, dst)

    # -- shape ----------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of vertices."""
        return len(self.offsets) - 1

    @property
    def m(self) -> int:
        """Number of (directed) edges."""
        return len(self.neighbors)

    def degree(self, v: int) -> int:
        return int(self.offsets[v + 1] - self.offsets[v])

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def max_degree(self) -> int:
        return int(self.degrees.max()) if self.n else 0

    def out_neighbors(self, v: int) -> np.ndarray:
        return self.neighbors[self.offsets[v] : self.offsets[v + 1]]

    def edges(self) -> Iterator[Tuple[int, int]]:
        for v in range(self.n):
            for u in self.out_neighbors(v):
                yield v, int(u)

    # -- transforms --------------------------------------------------------------

    def reversed(self) -> "CSRGraph":
        """The transpose graph (in-edges become out-edges)."""
        pairs = np.column_stack(
            [
                self.neighbors,
                np.repeat(np.arange(self.n, dtype=np.int64), self.degrees),
            ]
        )
        return CSRGraph.from_edges(
            pairs, n=self.n, dedup=False, drop_self_loops=False
        )

    def is_symmetric(self) -> bool:
        """True when every edge's reverse is present."""
        n = self.n
        src = np.repeat(np.arange(n, dtype=np.int64), self.degrees)
        return np.array_equal(
            np.unique(src * n + self.neighbors),
            np.unique(self.neighbors * n + src),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CSRGraph n={self.n} m={self.m} dmax={self.max_degree}>"
