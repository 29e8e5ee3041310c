"""Connected Components by label propagation — a §4.4-style further
example ("we have programmed many other examples").

Classic KVMSR iteration: every vertex pushes its current component label
to its neighbors; reduces keep the minimum per vertex (combining cache
with ``min`` semantics); a device-side driver repeats rounds until the
flush reports no label changed.  The changed-count rides the same
flush-value channel BFS uses for its frontier size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.io import VERTEX_STRIDE_WORDS, vertex_records
from repro.kvmsr import ArrayInput, KVMSRJob, MapTask, ReduceTask, job_of
from repro.machine.stats import SimStats
from repro.udweave import UDThread, UpDownRuntime, event


class CCMapTask(MapTask):
    """Push this vertex's label along every edge."""

    def kv_map(self, ctx, key, rep, degree, nl_off, orig_degree):
        app = self.job(ctx).payload
        self._degree, self._nl_off = degree, nl_off
        if degree == 0:
            self.kv_map_return(ctx)
            return
        ctx.send_dram_read(app.label_region.addr(rep), 1, "got_label")
        ctx.yield_()

    @event
    def got_label(self, ctx, label):
        app = self.job(ctx).payload
        self._label = label
        self._left = self._degree
        ctx.send_dram_reads(
            app.nl_region.addr(self._nl_off), self._degree, "got_nbrs", work=1
        )
        ctx.yield_()

    @event
    def got_nbrs(self, ctx, *neighbors):
        for u in neighbors:
            self.kv_emit(ctx, u, self._label)
            ctx.work(1)
        self._left -= len(neighbors)
        if self._left == 0:
            self.kv_map_return(ctx)
        else:
            ctx.yield_()


class CCReduceTask(ReduceTask):
    """Keep the minimum label seen per vertex (owner-lane min-combine)."""

    def kv_reduce(self, ctx, u, label):
        app = self.job(ctx).payload
        key = ("ccmin", app.uid, u)
        current = ctx.sp_read(key)
        ctx.work(2)
        if current is None or label < current:
            ctx.sp_write(key, label)
            owned = ctx.sp_read(("cck", app.uid), None)
            if owned is None:
                owned = set()
                ctx.sp_write(("cck", app.uid), owned)
            owned.add(u)
        self.kv_reduce_return(ctx)

    def kv_flush(self, ctx):
        """Apply the min-labels; count how many vertices changed."""
        app = self.job(ctx).payload
        owned = ctx.sp_read(("cck", app.uid), None) or set()
        changed = 0
        for u in owned:
            new = ctx.sp_read(("ccmin", app.uid, u))
            ctx.sp_write(("ccmin", app.uid, u), None)
            old = int(app.label_region.data[u])
            ctx.work(2)
            if new < old:
                ctx.send_dram_write(app.label_region.addr(u), [new])
                changed += 1
        ctx.sp_write(("cck", app.uid), set())
        self.kv_flush_return(ctx, changed)


class CCDriver(UDThread):
    """Repeat propagation rounds until a round changes nothing."""

    def __init__(self) -> None:
        self.job_id = -1
        self.cont = None
        self.rounds = 0

    @event
    def start(self, ctx, job_id):
        self.job_id = job_id
        self.cont = ctx.ccont
        job_of(ctx, job_id).launch_from(ctx, ctx.self_evw("round_done"))
        ctx.yield_()

    @event
    def round_done(self, ctx, tasks, emitted, polls, changed):
        self.rounds += 1
        if changed == 0:
            ctx.send_event(self.cont, self.rounds)
            ctx.yield_terminate()
        else:
            job_of(ctx, self.job_id).launch_from(
                ctx, ctx.self_evw("round_done")
            )
            ctx.yield_()


@dataclass
class ComponentsResult:
    labels: np.ndarray
    n_components: int
    rounds: int
    elapsed_seconds: float
    stats: SimStats


class ConnectedComponentsApp:
    """Label-propagation connected components on one simulated machine."""

    def __init__(
        self,
        runtime: UpDownRuntime,
        graph: CSRGraph,
        mem_nodes: Optional[int] = None,
        block_size: int = 4096,
        max_inflight: int = 64,
    ) -> None:
        if not graph.is_symmetric():
            raise ValueError(
                "label propagation finds components of symmetric graphs"
            )
        self.runtime = runtime
        self.graph = graph
        gm = runtime.gmem
        if mem_nodes is None:
            mem_nodes = 1 << (runtime.config.nodes.bit_length() - 1)
        records = vertex_records(graph)
        self.gv_region = gm.dram_malloc(
            records.size * 8, 0, mem_nodes, block_size, name="cc_gv"
        )
        self.gv_region[:] = records.ravel()
        self.nl_region = gm.dram_malloc(
            max(8, graph.m * 8), 0, mem_nodes, block_size, name="cc_nl"
        )
        if graph.m:
            self.nl_region[: graph.m] = graph.neighbors
        self.label_region = gm.dram_malloc(
            graph.n * 8, 0, mem_nodes, block_size, name="cc_labels"
        )
        self.label_region[:] = np.arange(graph.n)
        self.job = KVMSRJob(
            runtime,
            CCMapTask,
            ArrayInput(self.gv_region, VERTEX_STRIDE_WORDS, graph.n),
            reduce_cls=CCReduceTask,
            payload=self,
            max_inflight=max_inflight,
            name="cc_round",
        )
        self.uid = self.job.job_id
        runtime.register(CCDriver)

    def run(self, max_events: Optional[int] = None) -> ComponentsResult:
        rt = self.runtime
        (rounds,), stats = rt.call(
            self.job.master_lane, "CCDriver::start", self.job.job_id,
            done="cc_done", what="connected components", max_events=max_events,
        )
        labels = self.label_region.data.copy()
        return ComponentsResult(
            labels=labels,
            n_components=len(np.unique(labels)),
            rounds=rounds,
            elapsed_seconds=rt.elapsed_seconds,
            stats=stats,
        )


def reference_components(graph: CSRGraph) -> np.ndarray:
    """Oracle: min-vertex-id label per component via union-find."""
    parent = list(range(graph.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for v, u in graph.edges():
        a, b = find(v), find(u)
        if a != b:
            parent[max(a, b)] = min(a, b)
    return np.array([find(v) for v in range(graph.n)], dtype=np.int64)
