"""Event-IR lowering: golden dumps, batch safety, interpreter fallback.

Golden dumps pin the lowered form of every builtin app reduce handler
(pagerank, bfs, tc, bucket_sort), and a generated test pins that every
``LaneContext`` intrinsic the batch executors cannot run is refused by
name.  Combining-cache and scratchpad key
reprs embed the owning app's ``uid`` — a process-global counter — so the
exact-text goldens substitute the live names; the *shape* (op sequence,
operand sources, batchability verdict) is pinned literally.
"""

import pytest

from repro.graph import rmat
from repro.harness import bench_config, fingerprint
from repro.kvmsr import KVMSRJob, MapTask, RangeInput, ReduceTask
from repro.udweave import LaneContext, UpDownRuntime
from repro.udweave.ir import (
    LoweringUnsupported,
    Symbol,
    TraceContext,
    lower_reduce_entry,
    render_plan,
)

GRAPH = rmat(6, seed=7)
BLOCK = 4096


def _job(rt, reduce_cls_name):
    return next(
        j
        for j in rt.registry("kvmsr_jobs").values()
        if j.reduce_cls is not None
        and j.reduce_cls.__name__ == reduce_cls_name
    )


class TestGoldenDumps:
    def test_pagerank_reduce_is_batchable(self):
        from repro.apps import PageRankApp

        rt = UpDownRuntime(bench_config(2, batch_dispatch=True))
        PageRankApp(rt, GRAPH, block_size=BLOCK).run(iterations=1)
        job = _job(rt, "PRReduceTask")
        plan = job._batch_plan  # lowered lazily on the first emit
        assert plan is not None and plan.parkable
        assert render_plan(plan) == (
            f"handler PRReduceTask::__reduce_entry__\n"
            f"  binding=HashBinding(seed=0)\n"
            f"  batchable\n"
            f"  CC_ADD cache={job.payload.cache.name} key=op[1] delta=op[2]\n"
            f"  KVR_RETURN job={job.job_id}"
        )

    def test_bucket_sort_count_batchable_scatter_falls_back(self):
        import numpy as np

        from repro.apps.bucket_sort import BucketSortApp

        rt = UpDownRuntime(bench_config(2, batch_dispatch=True))
        vals = np.arange(500, dtype=np.int64)[::-1].copy()
        BucketSortApp(rt, vals).run()
        count = _job(rt, "SortCountReduce")
        plan = count._batch_plan
        assert plan is not None and plan.parkable
        assert render_plan(plan) == (
            f"handler SortCountReduce::__reduce_entry__\n"
            f"  binding=HashBinding(seed=0)\n"
            f"  batchable\n"
            f"  CC_ADD cache={count.payload.cache.name} "
            f"key=op[1] delta=op[2]\n"
            f"  KVR_RETURN job={count.job_id}"
        )
        # the scatter phase appends to a raw scratchpad list, and the
        # trace refuses the raw read by name before anything is recorded
        scatter = _job(rt, "SortScatterReduce")
        assert scatter._batch_plan is None and scatter._batch_tried
        splan = lower_reduce_entry(rt, scatter, (scatter.job_id, 3, 11))
        assert not splan.parkable
        assert splan.reason == "untraceable context intrinsic 'sp_read'"
        assert splan.ops == []

    def test_bfs_reduce_lowers_the_visited_arm(self):
        from repro.apps import BFSApp

        rt = UpDownRuntime(bench_config(2))
        app = BFSApp(rt, GRAPH, block_size=BLOCK)
        app.run(root=0)
        job = _job(rt, "BFSReduce")
        plan = job._batch_plan  # lowered lazily on the first emit
        assert plan is not None and plan.parkable
        assert render_plan(plan) == (
            f"handler BFSReduce::__reduce_entry__\n"
            f"  binding=HashBinding(seed=0)\n"
            f"  batchable\n"
            f"  ONCE_HIT key=('bfss', {app.uid}, op[1])\n"
            f"  CHARGE 1\n"
            f"  KVR_RETURN job={job.job_id}"
        )
        # the guard rebuilds the once-key from an emitted key and values
        assert plan.guard(42, (7, 3)) == ("bfss", app.uid, 42)
        # the hit arm reads no operand: its records park as ``()``
        assert plan.reads == () and plan.project is None
        assert rt.sim.stats.records_batched > 0

    def test_bfs_reduce_falls_back_on_raw_scratchpad(self):
        """The visited test written against the raw scratchpad (the
        shape ``BFSReduce`` had before ``sp_once``) must keep refusing:
        it is declared, so it *is* traced, and ``sp_read``'s result
        would steer an ``is None`` check the trace cannot see.  The
        trace has no ``sp_read`` at all — it refuses the read by name —
        which keeps that arm from ever executing as a batch."""
        from repro.apps import BFSApp
        from repro.apps.bfs import BFSAccelMaster, BFSReduce
        from repro.kvmsr import KVMSRJob, RangeInput

        class RawScratchpadBFSReduce(BFSReduce):
            def kv_reduce(self, ctx, u, parent, depth):
                app = self.job(ctx).payload
                if ctx.sp_read(("bfss", app.uid, u)) is not None:
                    ctx.work(1)
                    self.kv_reduce_return(ctx)
                    return
                ctx.sp_write(("bfss", app.uid, u), True)
                ctx.yield_()

        rt = UpDownRuntime(bench_config(2))
        app = BFSApp(rt, GRAPH, block_size=BLOCK)
        job = KVMSRJob(
            rt, BFSAccelMaster, RangeInput(2),
            reduce_cls=RawScratchpadBFSReduce, payload=app,
        )
        assert RawScratchpadBFSReduce.intrinsic_only  # inherited
        plan = lower_reduce_entry(rt, job, (job.job_id, 1, 0, 1))
        assert not plan.parkable and plan.guard is None
        assert plan.batch_fn is None
        assert plan.reason == "untraceable context intrinsic 'sp_read'"
        assert plan.ops == []

    def test_tc_reduce_falls_back_on_key_unpack(self):
        from repro.apps import TriangleCountApp

        rt = UpDownRuntime(bench_config(2, batch_dispatch=True))
        TriangleCountApp(rt, GRAPH, block_size=BLOCK).run()
        job = _job(rt, "TCReduceTask")
        assert job._batch_plan is None
        plan = lower_reduce_entry(rt, job, (job.job_id, (1, 2)))
        assert not plan.parkable
        assert plan.reason == (
            "symbolic operand 'op1' used in unsupported computation"
        )
        assert plan.ops == []  # aborted before the first intrinsic


class TestTraceSafety:
    def test_symbol_refuses_computation(self):
        s = Symbol(1, "op1")
        for expr in (
            lambda: s + 1,
            lambda: 1 + s,
            lambda: s < 2,
            lambda: bool(s),
            lambda: len(s),
            lambda: iter(s),
            lambda: s == 0,
            lambda: s != 0,
            lambda: s[0],
        ):
            with pytest.raises(LoweringUnsupported):
                expr()

    def test_trace_context_refuses_machine_state(self):
        """Machine state and the old trace-only names are refused by
        name, and a refusal records nothing."""
        rt = UpDownRuntime(bench_config(2))
        tctx = TraceContext(rt)
        for attr in (
            "lane", "sim", "record", "config", "cycles", "charge",
            "send_dram_read", "send_dram_reads", "spawn", "ud_print",
            "yield_", "yield_terminate",
        ):
            with pytest.raises(LoweringUnsupported, match=repr(attr)):
                getattr(tctx, attr)
        with pytest.raises(LoweringUnsupported, match="kv_emit"):
            tctx.op_kv_emit()
        assert tctx.ops == []
        assert tctx.runtime is rt  # ``job_of`` resolves through it


#: every public ``LaneContext`` name a traced body could reach, except
#: the two intrinsics a batch executor runs and ``runtime`` (``job_of``
#: resolves a job through it): methods, properties and fields alike.
REFUSED = sorted(
    name for name in dir(LaneContext)
    if not name.startswith("_")
    and name not in ("work", "sp_once", "runtime")
)


class _OneTupleMap(MapTask):
    def kv_map(self, ctx, key):
        self.kv_map_return(ctx)


class TestEveryOtherIntrinsicIsRefused:
    """Generated from ``LaneContext`` itself, so an intrinsic added there
    later is refused by default instead of silently traced."""

    def test_the_list_covers_the_context(self):
        assert {
            "sp_read", "sp_write", "send_event", "spawn", "send_dram_reads",
            "yield_", "yield_terminate", "time", "config", "lane", "cycles",
        } <= set(REFUSED)

    @pytest.mark.parametrize("name", REFUSED)
    def test_a_declared_reduce_using_it_does_not_park(self, name):
        class Probe(ReduceTask):
            intrinsic_only = True

            def kv_reduce(self, ctx, key, value):
                ctx.work(2)
                getattr(ctx, name)  # the lookup alone refuses
                self.kv_reduce_return(ctx)

        rt = UpDownRuntime(bench_config(1))
        job = KVMSRJob(rt, _OneTupleMap, RangeInput(1), reduce_cls=Probe)
        plan = lower_reduce_entry(rt, job, (job.job_id, 3, 5))
        assert not plan.parkable
        assert plan.batch_fn is None and plan.guard is None
        assert plan.reason == f"untraceable context intrinsic {name!r}"
        assert plan.ops == [("CHARGE", 2 * rt.config.costs.instruction)]


class TestOnceGuardTrace:
    """``TraceContext.sp_once`` lowers the already-set arm only, and
    only where an emit-time guard can stand for it."""

    @staticmethod
    def _tctx():
        rt = UpDownRuntime(bench_config(2))
        return rt, TraceContext(rt)

    def test_records_the_hit_arm_with_its_key_template(self):
        rt, tctx = self._tctx()
        tctx.work(2)  # pure charges may precede the guard
        assert tctx.sp_once(("seen", 3, Symbol(1, "op1"))) is True
        assert tctx.ops == [
            ("CHARGE", 2),
            ("ONCE_HIT", (("const", "seen"), ("const", 3), ("operand", 1))),
        ]
        tctx.op_kvr_return(0)
        with pytest.raises(LoweringUnsupported, match="already ended"):
            tctx.op_kvr_return(0)  # a body retires its tuple once

    def test_refused_after_a_state_changing_op(self):
        from repro.kvmsr.combining import CombiningCache

        rt, tctx = self._tctx()
        CombiningCache("c").add(tctx, Symbol(1, "op1"), Symbol(2, "op2"))
        with pytest.raises(LoweringUnsupported, match="state-changing"):
            tctx.sp_once(("seen", Symbol(1, "op1")))
        rt, tctx = self._tctx()
        tctx.op_kvr_return(0)
        with pytest.raises(LoweringUnsupported, match="state-changing"):
            tctx.sp_once(("seen", Symbol(1, "op1")))

    def test_refused_twice_in_one_body(self):
        rt, tctx = self._tctx()
        tctx.sp_once(("seen", Symbol(1, "op1")))
        with pytest.raises(LoweringUnsupported, match="more than one"):
            tctx.sp_once(("other", Symbol(1, "op1")))

    def test_refused_for_keys_the_guard_cannot_rebuild(self):
        rt, tctx = self._tctx()
        with pytest.raises(LoweringUnsupported, match="tuple"):
            tctx.sp_once(Symbol(1, "op1"))  # not a tuple
        # no intrinsic hands back a computed value to build a key from
        with pytest.raises(LoweringUnsupported, match="'sp_read'"):
            tctx.sp_read("k")


class TestFallbackParity:
    def test_unlowerable_handler_runs_interpreted_identically(self):
        """TC never lowers (its reduce is not declared, and would abort
        on the key unpack if it were) — batch on must be byte-for-byte
        inert, split counters included."""
        from repro.apps import TriangleCountApp

        fps = {}
        for batch in (False, True):
            rt = UpDownRuntime(bench_config(2, batch_dispatch=batch))
            res = TriangleCountApp(rt, GRAPH, block_size=BLOCK).run()
            fps[batch] = fingerprint(rt.sim, res.triangles)
            assert rt.sim.stats.records_batched == 0
            assert rt.sim.stats.batches_executed == 0
        assert fps[True] == fps[False]

