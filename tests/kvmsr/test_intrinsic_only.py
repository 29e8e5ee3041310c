"""Soundness of default-on batched dispatch: lowering runs user code.

``repro.udweave.ir`` lowers a handler by *executing its body once with
``Symbol`` operands* and compiles a plan that replays only the
intrinsics that run saw.  A reduce handler with a host-side Python
effect — the collector idiom half the KVMSR tests use — would trace as
batch-safe, get ``{$op1: [$op2]}`` written into its collector, and then
lose every batched record's real effect.  The rule that makes the
default safe: only classes declaring ``ReduceTask.intrinsic_only`` are
ever traced; everything else keeps the interpreter.
"""

import pytest

import repro.udweave.ir as ir
from repro.kvmsr import KVMSRJob, MapTask, RangeInput, ReduceTask, job_of
from repro.machine import SimulationError, bench_machine
from repro.udweave import UpDownRuntime

N_KEYS = 60
LABEL = "CollectReduce::__reduce_entry__"


class EmitPerKeyMap(MapTask):
    def kv_map(self, ctx, key):
        self.kv_emit(ctx, key % 3, key)
        self.kv_map_return(ctx)


class CollectReduce(ReduceTask):
    """Undeclared: ``kv_reduce`` mutates a host-side dict."""

    def kv_reduce(self, ctx, key, value):
        job_of(ctx, self._job_id).payload.setdefault(key, []).append(value)
        self.kv_reduce_return(ctx)


class MisdeclaredCollectReduce(CollectReduce):
    """The documented misuse: same body, declared intrinsic-only."""

    intrinsic_only = True


def _launch(reduce_cls):
    rt = UpDownRuntime(bench_machine(nodes=2))
    sink = {}
    KVMSRJob(
        rt, EmitPerKeyMap, RangeInput(N_KEYS), reduce_cls=reduce_cls,
        payload=sink,
    ).launch()
    return rt, sink


EXPECTED = {k: sorted(range(k, N_KEYS, 3)) for k in range(3)}


def _has_symbol(sink):
    return any(
        isinstance(x, ir.Symbol)
        for k, vs in sink.items()
        for x in (k, *vs)
    )


@pytest.fixture
def no_lowering(monkeypatch):
    """Any attempt to trace, lower or validate a handler fails the test."""

    def forbidden(*_a, **_k):
        raise AssertionError("emit path lowered an undeclared handler")

    for name in ("lower_reduce_entry", "lower_label", "_validate"):
        monkeypatch.setattr(ir, name, forbidden)


class TestUndeclaredHandlerKeepsTheInterpreter:
    def test_default_config_no_budget(self, no_lowering):
        rt, sink = _launch(CollectReduce)
        stats = rt.run()
        assert {k: sorted(v) for k, v in sink.items()} == EXPECTED
        assert not _has_symbol(sink)
        assert stats.records_batched == 0
        report = rt.sim.batch_report()
        assert report["drains"] == {"armed": 1}
        assert report["labels"][LABEL] == {
            "declared": False,
            "lowered": False,
            "reason": "not declared intrinsic_only",
            "parked": 0,
            "guard_declined": 0,
        }

    def test_budgeted_drain_abort_and_resume(self, no_lowering):
        """The gate no longer requires ``max_events is None``: a
        budgeted drain is armed too, and still never traces the body."""
        rt, sink = _launch(CollectReduce)
        with pytest.raises(SimulationError, match="max_events=50"):
            rt.run(max_events=50)
        assert not _has_symbol(sink)
        rt.run(max_events=2_000_000)
        assert {k: sorted(v) for k, v in sink.items()} == EXPECTED
        assert not _has_symbol(sink)
        assert rt.sim.batch_report()["drains"] == {"armed": 2}


class TestMisdeclaredHandler:
    def test_declaring_a_collector_intrinsic_only_corrupts_it(self):
        """What the declaration promises away: the trace runs the body
        with placeholders, the validation runs it on scratch lanes, and
        the batch path then replays intrinsics only."""
        rt, sink = _launch(MisdeclaredCollectReduce)
        stats = rt.run()
        assert stats.records_batched > 0
        assert _has_symbol(sink)
        real = {k: v for k, v in sink.items() if not isinstance(k, ir.Symbol)}
        assert sum(len(v) for v in real.values()) < N_KEYS
