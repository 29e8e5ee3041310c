"""Parallel Graph Abstraction: a mutable distributed graph on two SHTs.

Paper Table 5 lists it at 170 LoC — thin glue over two scalable hash
tables (vertices and edges), which is exactly what this is.  Used by the
ingestion pipeline (streaming inserts with fine-grained "locking" via
owner-lane serialization, §2.2) and partial match.

With ``adjacency=True`` each edge insert also appends the destination to
the source's adjacency list, kept on the source vertex's owner lane —
the index multihop queries traverse.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.udweave import UDThread, UpDownRuntime, event
from repro.udweave.context import LaneContext

from .sht import ScalableHashTable


class PGAAdjOp(UDThread):
    """Adjacency maintenance + queries on a vertex's owner lane."""

    @event
    def append(self, ctx, pg_name, src, dst):
        key = ("pga_adj", pg_name, src)
        adj: List[int] = ctx.sp_read(key, None) or []
        adj.append(dst)
        ctx.sp_write(key, adj)
        ctx.work(2)
        ctx.send_reply(1)
        ctx.yield_terminate()

    @event
    def neighbors(self, ctx, pg_name, vid, tag):
        adj = tuple(ctx.sp_read(("pga_adj", pg_name, vid), ()) or ())
        ctx.work(1 + len(adj))
        head = () if tag is None else (tag,)
        ctx.send_reply(*head, *adj)
        ctx.yield_terminate()


class ParallelGraph:
    """Distributed vertex + edge store with streaming insert."""

    def __init__(
        self,
        runtime: UpDownRuntime,
        name: str = "pgraph",
        vertex_value_words: int = 4,
        edge_value_words: int = 8,
        vertex_buckets_per_lane: int = 256,
        vertex_entries_per_bucket: int = 16,
        edge_buckets_per_lane: int = 256,
        edge_entries_per_bucket: int = 64,
        adjacency: bool = False,
    ) -> None:
        self.runtime = runtime
        self.name = name
        self.adjacency = adjacency
        self.vertices = ScalableHashTable(
            runtime,
            f"{name}_v",
            value_words=vertex_value_words,
            buckets_per_lane=vertex_buckets_per_lane,
            entries_per_bucket=vertex_entries_per_bucket,
        )
        self.edges = ScalableHashTable(
            runtime,
            f"{name}_e",
            value_words=edge_value_words,
            buckets_per_lane=edge_buckets_per_lane,
            entries_per_bucket=edge_entries_per_bucket,
        )
        runtime.register(PGAAdjOp)

    # ------------------------------------------------------------------
    # Device-side streaming inserts
    # ------------------------------------------------------------------

    def insert_vertex_from(
        self, ctx: LaneContext, vid, props=(), cont=None
    ) -> None:
        """Upsert a vertex (streaming input revisits endpoints freely)."""
        self.vertices.update_from(ctx, vid, props, cont=cont)

    def insert_edge_from(
        self, ctx: LaneContext, src, dst, props=(), cont=None
    ) -> None:
        """Upsert an edge record keyed by ``(src, dst)``; with adjacency
        enabled, also index it on the source's owner lane."""
        self.edges.update_from(ctx, (src, dst), props, cont=cont)
        if self.adjacency:
            ctx.spawn(
                self.vertices.owner_lane(src),
                "PGAAdjOp::append",
                self.name,
                src,
                dst,
            )

    def neighbors_from(self, ctx: LaneContext, vid, cont, tag=None) -> None:
        """Query ``vid``'s adjacency; the reply's operands are the
        neighbor IDs (prefixed by ``tag`` when given)."""
        if not self.adjacency:
            raise RuntimeError(
                f"parallel graph {self.name!r} was built without adjacency"
            )
        ctx.spawn(
            self.vertices.owner_lane(vid),
            "PGAAdjOp::neighbors",
            self.name,
            vid,
            tag,
            cont=cont,
        )

    def lookup_edge_from(self, ctx: LaneContext, src, dst, cont) -> None:
        self.edges.lookup_from(ctx, (src, dst), cont)

    # ------------------------------------------------------------------
    # Host-side verification
    # ------------------------------------------------------------------

    def snapshot(self) -> Tuple[Dict[Any, tuple], Dict[Any, tuple]]:
        """(vertices, edges) as host dictionaries."""
        return self.vertices.snapshot(), self.edges.snapshot()

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def snapshot_adjacency(self) -> Dict[int, List[int]]:
        """Host-side view of the adjacency index."""
        out: Dict[int, List[int]] = {}
        for lane_obj in self.runtime.sim._lanes.values():
            for key, adj in lane_obj.scratchpad.items():
                if (
                    isinstance(key, tuple)
                    and len(key) == 3
                    and key[0] == "pga_adj"
                    and key[1] == self.name
                ):
                    out[key[2]] = list(adj)
        return out
