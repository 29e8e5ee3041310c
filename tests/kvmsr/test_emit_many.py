"""The vector emit is the scalar loop, issued in one call.

``MapTask.kv_emit_many`` / ``emit_to_reduce_many`` hoist everything
that cannot change within one call out of the per-key loop.  The
differential below runs one emitting event both ways — the vector call
and ``for k in keys: kv_emit(k); ctx.work(work)`` — over random key
lists (duplicates hit the lane memo), ``work`` values, armed or
disarmed parking, and guarded or unguarded reduce plans, and compares
everything the emit touches: the model fingerprint, per-lane busy
cycles, scratchpads, every lane's parked records (in key order) as the
event left them, and the plans' ``parked`` / ``guard_declined`` tallies.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.harness import bench_config, fingerprint
from repro.kvmsr import (
    CombiningCache,
    KVMSRError,
    KVMSRJob,
    MapTask,
    RangeInput,
    ReduceTask,
    emit_to_reduce,
    emit_to_reduce_many,
)
from repro.udweave import UpDownRuntime


class _Spec:
    """What the one map task emits, and how (set per example)."""

    def __init__(self, keys, work, how, flagged, cache):
        self.keys = keys
        self.work = work
        self.how = how
        self.flagged = flagged
        self.cache = cache
        self.parked = None
        self.cycles = None


class _EmitMap(MapTask):
    def kv_map(self, ctx, _key):
        spec = self.job(ctx).payload
        keys, work = spec.keys, spec.work
        if spec.how == "kv_emit_many":
            self.kv_emit_many(ctx, keys, 0.5, work=work)
        elif spec.how == "emit_to_reduce_many":
            emit_to_reduce_many(ctx, self._job_id, keys, 0.5, work=work)
            self.add_emitted(len(keys))
        else:
            for k in keys:
                if spec.how == "kv_emit":
                    self.kv_emit(ctx, k, 0.5)
                else:
                    emit_to_reduce(ctx, self._job_id, k, 0.5)
                    self.add_emitted(1)
                ctx.work(work)
        spec.cycles = ctx.cycles
        spec.parked = {
            nwid: [
                (t, seq, ops) for t, seq, _plan, ops in ln.parked_records()
            ]
            for nwid, ln in ctx.sim._lanes.items()
            if ln.parked
        }
        self.kv_map_return(ctx)


class _SumReduce(ReduceTask):
    intrinsic_only = True

    def kv_reduce(self, ctx, key, value):
        self.job(ctx).payload.cache.add(ctx, key, value)
        self.kv_reduce_return(ctx)


class _OnceReduce(ReduceTask):
    intrinsic_only = True

    def kv_reduce(self, ctx, key, value):
        if ctx.sp_once(("seen", key)):
            ctx.work(1)
            self.kv_reduce_return(ctx)
            return
        ctx.work(40)
        self.kv_reduce_return(ctx)


def _run(keys, work, how, armed, guarded, flagged):
    rt = UpDownRuntime(bench_config(2, batch_dispatch=armed))
    spec = _Spec(keys, work, how, flagged, CombiningCache("emit_many"))
    job = KVMSRJob(
        rt, _EmitMap, RangeInput(1),
        reduce_cls=_OnceReduce if guarded else _SumReduce,
        payload=spec,
    )
    for k in flagged:
        # host-side seeding of the once-flag: the guard parks these keys
        lane = job.reduce_binding.lane_for(k, job.reduce_lanes)
        rt.sim.lane(lane).scratchpad[("seen", k)] = True
    job.launch()
    stats = rt.run(max_events=100_000)
    assert stats.quiesced
    report = rt.sim.batch_report()
    return {
        "cycles": spec.cycles,
        "parked": spec.parked,
        "fingerprint": fingerprint(rt.sim),
        "labels": report["labels"],
    }


keys = st.lists(st.integers(0, 40), max_size=24)


@settings(max_examples=60, deadline=None)
@given(
    keys=keys,
    work=st.integers(0, 3),
    armed=st.booleans(),
    guarded=st.booleans(),
    flag_mask=st.integers(0, 2**41 - 1),
    form=st.sampled_from(["kv_emit", "emit_to_reduce"]),
)
def test_vector_emit_equals_the_scalar_loop(
    keys, work, armed, guarded, flag_mask, form
):
    flagged = [k for k in range(41) if flag_mask >> k & 1] if guarded else []
    scalar = _run(keys, work, form, armed, guarded, flagged)
    vector = _run(keys, work, f"{form}_many", armed, guarded, flagged)
    assert vector == scalar


def test_the_differential_reaches_both_arms_of_the_guard():
    """The fixed example the property relies on: a guarded plan parks
    the pre-flagged keys and declines the rest, armed."""
    out = _run([1, 2, 3, 1], 1, "kv_emit_many", True, True, [1, 3])
    row = out["labels"]["_OnceReduce::__reduce_entry__"]
    assert (row["parked"], row["guard_declined"]) == (3, 1)
    assert sum(len(v) for v in out["parked"].values()) == 3


class _NoReduceMap(MapTask):
    def kv_map(self, ctx, key):
        self.kv_emit_many(ctx, [key], 1)
        self.kv_map_return(ctx)


def test_vector_emit_without_a_reduce_phase_raises():
    rt = UpDownRuntime(bench_config(1))
    KVMSRJob(rt, _NoReduceMap, RangeInput(1)).launch()
    with pytest.raises(KVMSRError, match="no reduce phase"):
        rt.run(max_events=1_000)
