"""KVMSR's hierarchical control: coordinator aggregation and polling."""

from collections import Counter

import pytest

from repro.kvmsr import KVMSRJob, MapTask, RangeInput, ReduceTask
from repro.machine import bench_machine
from repro.observe import make_recorder
from repro.udweave import UpDownRuntime, event


class QuickMap(MapTask):
    def kv_map(self, ctx, key):
        self.kv_emit(ctx, key, 1)
        self.kv_map_return(ctx)


class SlowReduce(ReduceTask):
    """Holds each reduce open across a long self-delay, stretching the
    reduce tail so the master must poll repeatedly."""

    def kv_reduce(self, ctx, key, one):
        ctx.send_event(ctx.self_evw("later"), delay=30_000)
        ctx.yield_()

    @event
    def later(self, ctx):
        self.kv_reduce_return(ctx)


class FastReduce(ReduceTask):
    def kv_reduce(self, ctx, key, one):
        self.kv_reduce_return(ctx)


def _label_counts(rt):
    return Counter(label for *_, label in rt.recorder.lane_spans)


class TestHierarchy:
    def test_master_talks_to_nodes_not_lanes(self):
        """The start fan-out is two-level: the master's lane sends O(nodes)
        messages, not O(lanes) (the paper's multi-level control)."""
        nodes = 8
        # lane spans (record="full") label every executed event
        rt = UpDownRuntime(
            bench_machine(nodes=nodes), recorder=make_recorder("full")
        )
        job = KVMSRJob(rt, QuickMap, RangeInput(64), reduce_cls=FastReduce)
        job.launch()
        rt.run(max_events=2_000_000)
        labels = _label_counts(rt)
        assert labels["NodeCoordinator::coord_start"] == nodes
        assert labels["KVMSRMaster::node_done"] == nodes
        # each coordinator started its node's lane dispatchers
        assert labels["MapperLane::start"] == rt.config.total_lanes

    def test_slow_reduce_forces_repolling(self):
        rt = UpDownRuntime(bench_machine(nodes=2))
        job = KVMSRJob(
            rt,
            QuickMap,
            RangeInput(16),
            reduce_cls=SlowReduce,
            poll_interval_cycles=5_000,
        )
        job.launch()
        rt.run(max_events=2_000_000)
        (_t, _e, polls, _f) = rt.host_messages("kvmsr_done")[0].operands
        assert polls >= 2  # first poll saw incomplete counts

    def test_fast_reduce_single_poll(self):
        rt = UpDownRuntime(bench_machine(nodes=2))
        job = KVMSRJob(rt, QuickMap, RangeInput(16), reduce_cls=FastReduce)
        job.launch()
        rt.run(max_events=2_000_000)
        (_t, _e, polls, _f) = rt.host_messages("kvmsr_done")[0].operands
        assert polls <= 2

    def test_completion_waits_for_every_reduce(self):
        """With a long reduce tail, the completion message must still not
        fire until all reduces finished: total counted == emitted."""
        rt = UpDownRuntime(
            bench_machine(nodes=2), recorder=make_recorder("full")
        )
        job = KVMSRJob(
            rt,
            QuickMap,
            RangeInput(24),
            reduce_cls=SlowReduce,
            poll_interval_cycles=5_000,
        )
        job.launch()
        rt.run(max_events=2_000_000)
        done_t = rt.sim.host_inbox[0][0]
        # the delayed 'later' events all executed before completion
        assert _label_counts(rt)["SlowReduce::later"] == 24
        assert done_t >= 30_000
