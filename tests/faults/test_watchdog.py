"""Liveness watchdogs: lost credits raise QuiescenceStall, not a hang.

The scenario is the one the fault subsystem exists to expose: a dropped
map->reduce tuple without retry leaves the KVMSR master polling its
quiescence counters forever (only idle-labeled poll events execute).
``FaultPlan(seed=1, drop_rate=0.02)`` over this fixed job is known to
drop a reduce tuple — the draws are content-keyed, so this is stable,
not flaky.
"""

import pytest

from repro.faults import FaultPlan, QuiescenceStall
from repro.kvmsr import KVMSRJob, MapTask, RangeInput, ReduceTask, job_of
from repro.machine import (
    MessageRecord,
    SimulationError,
    Simulator,
    bench_machine,
)
from repro.machine.events import NEW_THREAD
from repro.udweave import UpDownRuntime


class EmitMap(MapTask):
    def kv_map(self, ctx, key):
        self.kv_emit(ctx, key % 5, key)
        self.kv_map_return(ctx)


class Collect(ReduceTask):
    def kv_reduce(self, ctx, key, value):
        job_of(ctx, self._job_id).payload.setdefault(key, []).append(value)
        self.kv_reduce_return(ctx)


class Tally(ReduceTask):
    """A declared batch-safe reduce: its tuples park when armed."""

    intrinsic_only = True

    def kv_reduce(self, ctx, key, value):
        ctx.work(1)
        self.kv_reduce_return(ctx)


def _runtime(faults=None, reliable=False, watchdog=None, shards=1,
             batch=True, reduce_cls=Collect):
    rt = UpDownRuntime(
        bench_machine(nodes=2, batch_dispatch=batch), faults=faults,
        reliable=reliable, watchdog_cycles=watchdog, shards=shards,
    )
    sink = {}
    KVMSRJob(
        rt, EmitMap, RangeInput(60), reduce_cls=reduce_cls, payload=sink
    ).launch()
    return rt, sink


def run_job(faults=None, reliable=False, watchdog=None, shards=1):
    rt, sink = _runtime(faults, reliable, watchdog, shards)
    stats = rt.run(max_events=2_000_000)
    return rt, sink, stats


LOSSY = dict(faults=FaultPlan(seed=1, drop_rate=0.02), watchdog=30_000.0)


class TestLostCredit:
    def test_clean_run_quiesces_under_watchdog(self):
        _rt, sink, stats = run_job(watchdog=30_000.0)
        assert stats.quiesced and stats.pending_threads == 0
        assert sum(len(v) for v in sink.values()) == 60

    def test_lost_reduce_credit_raises_instead_of_spinning(self):
        with pytest.raises(QuiescenceStall, match="idle/control"):
            run_job(**LOSSY)

    def test_stall_dump_names_the_missing_credits(self):
        try:
            run_job(**LOSSY)
        except QuiescenceStall as exc:
            dump = exc.diagnostic
        else:
            pytest.fail("expected QuiescenceStall")
        assert dump["pending_threads"] > 0
        masters = dump["kvmsr_credits"]["live_masters"]
        assert len(masters) == 1
        (master,) = masters
        assert master["phase"] == "reduce"
        assert master["outstanding"] > 0
        assert master["reduce_credits_banked"] < master["total_emitted"]
        # triage context: what is still waiting (the poll event that
        # tripped the watchdog was already popped, so the heap itself
        # may be momentarily empty)
        assert dump["blocked_threads"]
        assert dump["watchdog_cycles"] == 30_000.0

    def test_reliable_delivery_cures_the_same_plan(self):
        _rt, golden, _ = run_job()
        _rt, sink, stats = run_job(reliable=True, **LOSSY)
        assert stats.faults_messages_dropped > 0
        assert stats.transport_retransmits > 0
        assert stats.quiesced
        assert {k: sorted(v) for k, v in sink.items()} == {
            k: sorted(v) for k, v in golden.items()
        }

    def test_sharded_stall_is_the_sequential_verdict(self):
        """The verdict exists once, in the drain loop: under ``shards=2``
        the lost credit raises the sequential message, with the same
        KVMSR credit dump."""
        raised = {}
        for shards in (1, 2):
            with pytest.raises(QuiescenceStall) as info:
                run_job(shards=shards, **LOSSY)
            raised[shards] = info.value
        seq, shd = raised[1], raised[2]
        assert str(shd).splitlines()[0] == str(seq).splitlines()[0]
        assert "no application progress for" in str(shd)
        credits = shd.diagnostic["kvmsr_credits"]
        assert credits == seq.diagnostic["kvmsr_credits"]
        assert any(m["outstanding"] > 0 for m in credits["live_masters"])


#: drop-only plans that lose a reduce credit: as is, with a delayed
#: reduce tuple as the last progress (it runs in a flush), and with one
#: still parked on another lane when the tripping poll pops
TRIP_PLANS = {
    "drops": dict(seed=1, drop_rate=0.02),
    "late_tuple": dict(
        seed=3, drop_rate=0.02, delay_rate=0.2, delay_cycles=8_000.0
    ),
    "parked_tuple": dict(
        seed=1, drop_rate=0.02, delay_rate=0.05, delay_cycles=30_000.0
    ),
}


class TestBatchedTrip:
    """The lost credit with a declared reduce on an armed machine:
    reduce tuples park and run in the batch executor, and the watchdog
    still raises the interpreter's verdict — a batched record is
    progress when it runs, and a record still parked below the idle
    event would have run before it."""

    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("plan", list(TRIP_PLANS))
    def test_trip_equals_the_interpreter(self, plan, shards):
        raised = {}
        for batch in (False, True):
            rt, _sink = _runtime(
                FaultPlan(**TRIP_PLANS[plan]), watchdog=30_000.0,
                shards=shards, batch=batch, reduce_cls=Tally,
            )
            with pytest.raises(QuiescenceStall) as info:
                rt.run(max_events=2_000_000)
            raised[batch] = (
                str(info.value).splitlines()[0],
                info.value.diagnostic["last_progress_tick"],
                rt.sim.stats.records_batched + rt.sim._parked_total,
                rt.sim.batch_report()["labels"],
            )
        ref, out = raised[False], raised[True]
        assert out[:2] == ref[:2]
        assert ref[2:] == (0, {})  # batch_dispatch=False lowers nothing
        assert out[2] > 0
        assert out[3]["Tally::__reduce_entry__"]["reason"] is None

    def test_an_idle_marked_reduce_is_never_parked(self):
        rt, _sink = _runtime(reduce_cls=Tally)
        rt.sim.mark_idle_labels({"Tally::__reduce_entry__"})
        assert rt.run(max_events=2_000_000).quiesced
        row = rt.sim.batch_report()["labels"]["Tally::__reduce_entry__"]
        assert not row["lowered"]
        assert row["reason"] == "idle-marked for the watchdog"
        assert rt.sim.stats.records_batched == 0


class TestWatchdogValidation:
    @pytest.mark.parametrize(
        "bad", [0.0, -1.0, float("nan"), float("inf")]
    )
    def test_threshold_must_be_positive_and_finite(self, bad):
        # NaN would make ``gap > threshold`` always false: a watchdog
        # that silently never fires
        with pytest.raises(SimulationError, match="watchdog_cycles"):
            Simulator(bench_machine(nodes=1), watchdog_cycles=bad)


class TestRearmOnInjection:
    """Host injections count as progress: intentional idle gaps (open-loop
    traffic between bursts) must not trip the watchdog, while a genuine
    stall — idle events advancing time with nothing admitted — still does."""

    MODES = {
        "sequential": {},
        "shards2": dict(shards=2),
    }

    def _sim(self, watchdog=1_000.0, mode="sequential"):
        # dispatcher models a poll loop: executing "work" schedules
        # *device-side* idle polls (like KVMSR's quiescence poll or an
        # rdt retry timer) spanning a gap far beyond the watchdog
        def dispatch(sim, lane, record, start):
            if record.label == "work" and not dispatch.armed:
                dispatch.armed = True
                for t in (2_000.0, 4_000.0, 6_000.0):
                    sim._push(t, MessageRecord(0, NEW_THREAD, "idle_poll"), 1)
            return 1.0

        dispatch.armed = False
        sim = Simulator(
            bench_machine(nodes=2),
            dispatcher=dispatch,
            watchdog_cycles=watchdog,
            **self.MODES[mode],
        )
        sim.mark_idle_labels({"idle_poll"})
        return sim

    def test_future_injection_covers_the_idle_gap(self):
        sim = self._sim()
        sim.inject(MessageRecord(0, NEW_THREAD, "work"), t=0.0)
        # the next burst is already injected at t=7k, which rearms the
        # progress mark past every mid-gap idle event
        sim.inject(MessageRecord(0, NEW_THREAD, "work"), t=7_000.0)
        stats = sim.run()
        assert stats.quiesced and stats.events_executed == 5

    def test_genuine_stall_still_trips(self):
        sim = self._sim()
        sim.inject(MessageRecord(0, NEW_THREAD, "work"), t=0.0)
        with pytest.raises(QuiescenceStall, match="idle/control"):
            sim.run()

    def test_rearm_never_moves_the_mark_backwards(self):
        sim = self._sim()
        sim.inject(MessageRecord(0, NEW_THREAD, "work"), t=5_000.0)
        sim.inject(MessageRecord(0, NEW_THREAD, "work"), t=0.0)  # stale t
        assert sim._wd_last_progress == 5_000.0

    # The two drills above keep their names (sequential); the sharded
    # mode gets the same drills through its window loop.

    @pytest.mark.parametrize("mode", ["shards2"])
    def test_sharded_modes_cover_the_gap_and_still_trip(self, mode):
        sim = self._sim(mode=mode)
        sim.inject(MessageRecord(0, NEW_THREAD, "work"), t=0.0)
        sim.inject(MessageRecord(0, NEW_THREAD, "work"), t=7_000.0)
        stats = sim.run()
        assert stats.quiesced and stats.events_executed == 5
        sim = self._sim(mode=mode)
        sim.inject(MessageRecord(0, NEW_THREAD, "work"), t=0.0)
        with pytest.raises(QuiescenceStall, match="idle/control"):
            sim.run()

    @pytest.mark.parametrize("mode", list(MODES))
    def test_injection_between_drains_rearms(self, mode):
        # the open-loop shape: a bounded drain, then the next burst is
        # admitted, then the machine runs across the idle gap
        sim = self._sim(mode=mode)
        sim.inject(MessageRecord(0, NEW_THREAD, "work"), t=0.0)
        assert not sim.run(until=1_000.0).quiesced
        sim.inject(MessageRecord(0, NEW_THREAD, "work"), t=7_000.0)
        stats = sim.run()
        assert stats.quiesced and stats.events_executed == 5


class TestQuiescedVersusStalled:
    def test_bounded_run_is_not_quiesced(self):
        """An ``until=`` window leaves the heap populated: not quiesced."""
        sim = Simulator(
            bench_machine(nodes=1),
            dispatcher=lambda sim, lane, record, start: 1.0,
        )
        for t in (10.0, 20.0, 30.0):
            sim.inject(MessageRecord(0, NEW_THREAD, "e"), t=t)
        sim.run(until=15.0)
        assert not sim.stats.quiesced
        sim.run()
        assert sim.stats.quiesced
