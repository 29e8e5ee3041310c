"""SHMEM-style library: put/get and reductions over symmetric regions.

Table 5 lists a 1,914-LoC SHMEM library (put/get, reductions) built on
UpDown's translation-supported data placement; Table 3 marks its KVMSR
integration "Future".  This rendering provides:

* symmetric allocation: one region striped so each node holds an equal
  contiguous slice (``DRAMmalloc(size, 0, nodes, size/nodes)``);
* device-side ``put`` / ``get`` against a (node, offset) coordinate —
  resolved through the same translation the apps use;
* ``sum_reduce``: a node-parallel KVMSR reduction whose total returns
  through the flush-phase value channel.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.kvmsr import KVMSRJob, MapTask, RangeInput, ReduceTask, job_of
from repro.machine.stats import SimStats
from repro.udweave import UpDownRuntime, event
from repro.udweave.context import LaneContext


def _next_pow2(x: int) -> int:
    return 1 << max(0, (x - 1).bit_length())


class SymmetricRegion:
    """A region with an equal, contiguous slice on every node."""

    def __init__(
        self,
        runtime: UpDownRuntime,
        name: str,
        words_per_node: int,
        dtype=np.int64,
    ) -> None:
        if words_per_node < 1:
            raise ValueError("need at least one word per node")
        self.runtime = runtime
        nodes = runtime.config.nodes
        self.words_per_node = words_per_node
        # pad the per-node slice up to a power-of-two block so the cyclic
        # layout lands slice k exactly on node k
        block = max(
            runtime.config.min_dram_block_bytes,
            _next_pow2(words_per_node * 8),
        )
        self.slice_words = block // 8
        nr = nodes if nodes & (nodes - 1) == 0 else _next_pow2(nodes) // 2
        self.region = runtime.gmem.dram_malloc(
            nodes * block, 0, max(1, nr), block, dtype=dtype,
            name=f"shmem_{name}",
        )

    def addr(self, node: int, offset: int) -> int:
        """Byte VA of word ``offset`` in ``node``'s symmetric slice."""
        if not (0 <= offset < self.words_per_node):
            raise ValueError(f"offset {offset} outside the symmetric slice")
        return self.region.addr(node * self.slice_words + offset)

    def index(self, node: int, offset: int) -> int:
        return node * self.slice_words + offset

    # -- device-side one-sided ops ----------------------------------------

    def put_from(self, ctx: LaneContext, node: int, offset: int, values) -> None:
        """One-sided write into another node's slice."""
        ctx.send_dram_write(self.addr(node, offset), list(values))

    def get_from(
        self, ctx: LaneContext, node: int, offset: int, nwords: int,
        return_label: str, tag=None,
    ) -> None:
        """One-sided split-phase read from another node's slice."""
        ctx.send_dram_read(self.addr(node, offset), nwords, return_label, tag=tag)

    # -- host access --------------------------------------------------------

    def host_view(self, node: int) -> np.ndarray:
        lo = node * self.slice_words
        return self.region.data[lo : lo + self.words_per_node]


class _SumTask(MapTask):
    """Per-node partial sum: reads one symmetric slice, emits the partial."""

    def kv_map(self, ctx, node):
        sym: SymmetricRegion = self.job(ctx).payload
        self._node = node
        self._acc = 0
        self._left = ctx.send_dram_reads(
            sym.addr(node, 0), sym.words_per_node, "got_words", work=1
        )
        ctx.yield_()

    @event
    def got_words(self, ctx, *words):
        self._acc += sum(words)
        ctx.work(len(words))
        self._left -= 1
        if self._left == 0:
            self.kv_emit(ctx, 0, self._acc)
            self.kv_map_return(ctx)
        else:
            ctx.yield_()


class _SumReduce(ReduceTask):
    """Folds partials on the owner lane; the flush value is the total."""

    def kv_reduce(self, ctx, key, partial):
        acc_key = ("shmem_sum", self._job_id)
        ctx.sp_write(acc_key, ctx.sp_read(acc_key, 0) + partial)
        ctx.work(1)
        self.kv_reduce_return(ctx)

    def kv_flush(self, ctx):
        acc_key = ("shmem_sum", self._job_id)
        total = ctx.sp_read(acc_key, 0)
        ctx.sp_write(acc_key, 0)
        self.kv_flush_return(ctx, total)


def sum_reduce(
    sym: SymmetricRegion, max_events: Optional[int] = None
) -> Tuple[int, SimStats]:
    """Globally sum a symmetric region's live words; returns (sum, stats).

    Drives one node-parallel KVMSR job to completion on the region's
    runtime, so call it between application phases, not concurrently.
    """
    rt = sym.runtime
    job = KVMSRJob(
        rt,
        _SumTask,
        RangeInput(rt.config.nodes),
        reduce_cls=_SumReduce,
        payload=sym,
        name=f"shmem_sum_{sym.region.name}",
    )
    job.launch(cont_tag="shmem_sum_done")
    stats = rt.run(max_events=max_events)
    done = rt.host_messages("shmem_sum_done")
    if not done:
        raise rt.sim.incomplete("sum_reduce did not complete")
    _tasks, _emitted, _polls, total = done[-1].operands
    return total, stats


class _BcastTask(MapTask):
    """Pull-style broadcast: each node copies the root's slice locally."""

    def kv_map(self, ctx, node):
        sym, root = self.job(ctx).payload
        if node == root:
            self.kv_map_return(ctx)
            return
        self._node = node
        self._left = ctx.send_dram_reads(
            sym.addr(root, 0), sym.words_per_node, "got_words", tag=root,
            work=1,
        )
        ctx.yield_()

    @event
    def got_words(self, ctx, _tag, offset, *words):
        sym, _root = self.job(ctx).payload
        sym.put_from(ctx, self._node, offset, list(words))
        self._left -= 1
        if self._left == 0:
            self.kv_map_return(ctx)
        else:
            ctx.yield_()


def broadcast(
    sym: SymmetricRegion, root: int = 0, max_events: Optional[int] = None
) -> SimStats:
    """Copy ``root``'s slice into every node's slice (SHMEM broadcast)."""
    rt = sym.runtime
    if not (0 <= root < rt.config.nodes):
        raise ValueError(f"root node {root} out of range")
    job = KVMSRJob(
        rt,
        _BcastTask,
        RangeInput(rt.config.nodes),
        payload=(sym, root),
        name=f"shmem_bcast_{sym.region.name}",
    )
    job.launch(cont_tag="shmem_bcast_done")
    stats = rt.run(max_events=max_events)
    if not rt.host_messages("shmem_bcast_done"):
        raise rt.sim.incomplete("broadcast did not complete")
    return stats


def barrier(runtime: UpDownRuntime, max_events: Optional[int] = None) -> SimStats:
    """A machine-wide barrier: an empty per-node KVMSR round trip.

    The completion message is the barrier's release — on the real machine
    this is the hierarchical synchronization KVMSR already performs for
    every phase boundary."""
    from repro.kvmsr import make_do_all

    job = make_do_all(
        runtime, runtime.config.nodes, lambda ctx, node: ctx.work(1),
        name=f"shmem_barrier{id(runtime) & 0xffff}",
    )
    job.launch(cont_tag="shmem_barrier_done")
    stats = runtime.run(max_events=max_events)
    if not runtime.host_messages("shmem_barrier_done"):
        raise runtime.sim.incomplete("barrier did not complete")
    return stats
