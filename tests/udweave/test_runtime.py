"""UpDownRuntime: dispatch, thread lifecycle, yields, cost charging."""

import pytest

from repro.machine import bench_machine
from repro.udweave import (
    ProgramError,
    UDThread,
    UDWeaveError,
    UpDownRuntime,
    event,
)
from repro.udweave.eventword import encode


def make_runtime(nodes=1):
    return UpDownRuntime(bench_machine(nodes=nodes))


class TestDispatch:
    def test_thread_state_persists_across_events(self):
        rt = make_runtime()

        @rt.register
        class Counter(UDThread):
            def __init__(self):
                self.n = 0

            @event
            def bump(self, ctx, stop_at):
                self.n += 1
                if self.n >= stop_at:
                    ctx.send_event(ctx.runtime.host_evw("n"), self.n)
                    ctx.yield_terminate()
                else:
                    ctx.send_event(ctx.self_evw("bump"), stop_at)
                    ctx.yield_()

        rt.start(0, "Counter::bump", 5)
        rt.run()
        assert rt.host_messages("n")[0].operands == (5,)

    def test_message_to_dead_thread_raises(self):
        rt = make_runtime()

        @rt.register
        class Dier(UDThread):
            @event
            def die(self, ctx):
                # address self after termination
                ctx.send_event(ctx.self_evw("die"))
                ctx.yield_terminate()

        rt.start(0, "Dier::die")
        with pytest.raises(UDWeaveError, match="dead thread"):
            rt.run()

    def test_missing_yield_raises(self):
        rt = make_runtime()

        @rt.register
        class Forgetful(UDThread):
            @event
            def oops(self, ctx):
                pass  # neither yield_ nor yield_terminate

        rt.start(0, "Forgetful::oops")
        with pytest.raises(UDWeaveError, match="yield"):
            rt.run()

    def test_wrong_thread_type_raises(self):
        rt = make_runtime()

        @rt.register
        class A(UDThread):
            @event
            def ea(self, ctx):
                ctx.yield_()

        @rt.register
        class B(UDThread):
            @event
            def go(self, ctx):
                # build an evw pointing at *this* thread but with A's label
                from repro.udweave import eventword

                bad = eventword.encode(
                    ctx.network_id,
                    ctx.runtime.label_id("A::ea"),
                    thread=ctx.tid,
                )
                ctx.send_event(bad)
                ctx.yield_()

        rt.start(0, "B::go")
        with pytest.raises(UDWeaveError, match="delivered to thread"):
            rt.run()

    def test_thread_create_and_terminate_counted(self):
        rt = make_runtime()

        @rt.register
        class T(UDThread):
            @event
            def go(self, ctx):
                ctx.yield_terminate()

        rt.start(0, "T::go")
        stats = rt.run()
        assert stats.threads_created == 1
        assert stats.threads_terminated == 1


class TestCostCharging:
    def test_event_cycles_follow_table2(self):
        """dispatch(2) + send(1) + yield(1) = 4 cycles for this event."""
        rt = make_runtime()

        @rt.register
        class T(UDThread):
            @event
            def go(self, ctx):
                ctx.send_event(ctx.runtime.host_evw("x"))
                ctx.yield_terminate()

        rt.start(0, "T::go")
        stats = rt.run()
        c = rt.config.costs
        expected = c.event_dispatch + c.send_message + c.thread_deallocate
        assert stats.busy_cycles_by_lane[0] == expected

    def test_work_charges_instructions(self):
        rt = make_runtime()

        @rt.register
        class T(UDThread):
            @event
            def go(self, ctx):
                ctx.work(100)
                ctx.yield_terminate()

        rt.start(0, "T::go")
        stats = rt.run()
        assert stats.busy_cycles_by_lane[0] >= 100

    def test_negative_work_rejected(self):
        rt = make_runtime()

        @rt.register
        class T(UDThread):
            @event
            def go(self, ctx):
                ctx.work(-1)

        rt.start(0, "T::go")
        with pytest.raises(UDWeaveError):
            rt.run()


class TestLabelResolution:
    def test_bare_names_resolve_through_mro(self):
        rt = make_runtime()

        class Base(UDThread):
            @event
            def shared(self, ctx):
                ctx.send_event(ctx.runtime.host_evw("ok"))
                ctx.yield_terminate()

        @rt.register
        class Derived(Base):
            @event
            def go(self, ctx):
                ctx.send_event(ctx.self_evw("shared"))
                ctx.yield_()

        rt.start(0, "Derived::go")
        rt.run()
        assert rt.host_messages("ok")

    def test_unknown_bare_name_raises(self):
        rt = make_runtime()

        @rt.register
        class T(UDThread):
            @event
            def go(self, ctx):
                ctx.self_evw("nonexistent")

        rt.start(0, "T::go")
        with pytest.raises(Exception, match="not registered"):
            rt.run()

    @pytest.mark.parametrize("label_id", [-1, -2, 2, 99])
    def test_out_of_range_label_ids_rejected(self, label_id):
        # -1 used to index the label list from the end: the spawn below
        # ran A::other, the last registered event
        rt = make_runtime()
        ran = []

        @rt.register
        class A(UDThread):
            @event
            def go(self, ctx):
                ctx.spawn(ctx.network_id, label_id)
                ctx.yield_terminate()

            @event
            def other(self, ctx):
                ran.append("other")
                ctx.yield_terminate()

        with pytest.raises(ProgramError, match="unknown label id"):
            rt.resolve_label_id(label_id)
        rt.start(0, "A::go")
        with pytest.raises(ProgramError, match="unknown label id"):
            rt.run()
        assert ran == []

    @pytest.mark.parametrize(
        "make",
        [
            lambda ctx, bad: ctx.evw_new(0, bad),
            lambda ctx, bad: ctx.self_evw(bad),
            lambda ctx, bad: ctx.evw_update_event(ctx.cevnt, bad),
        ],
    )
    def test_event_word_sites_reject_negative_ids(self, make):
        rt = make_runtime()

        @rt.register
        class T(UDThread):
            @event
            def go(self, ctx):
                ctx.self_evw("go")  # warm the resolve cache for T
                make(ctx, -1)

        rt.start(0, "T::go")
        with pytest.raises(ProgramError, match="unknown label id -1"):
            rt.run()

    def test_record_for_rejects_unregistered_label_in_event_word(self):
        rt = make_runtime()

        @rt.register
        class T(UDThread):
            @event
            def go(self, ctx):
                pass

        with pytest.raises(ProgramError, match="unknown label id 5"):
            rt.record_for(encode(0, 5), (), None, None)

    def test_host_evw_tags_are_stable(self):
        rt = make_runtime()
        assert rt.host_evw("a") == rt.host_evw("a")
        assert rt.host_evw("a") != rt.host_evw("b")
