"""Program registry: label assignment, handler lookup, inheritance."""

import pytest

from repro.udweave import Program, ProgramError, UDThread, event


class TA(UDThread):
    @event
    def e1(self, ctx):
        pass

    @event
    def e2(self, ctx):
        pass

    def helper(self, ctx):  # not an event
        pass


class TB(TA):
    @event
    def e3(self, ctx):
        pass


class TestRegistration:
    def test_labels_are_class_qualified(self):
        p = Program()
        p.register(TA)
        assert p.label_id("TA::e1") != p.label_id("TA::e2")
        assert p.label_name(p.label_id("TA::e1")) == "TA::e1"

    def test_handler_lookup(self):
        p = Program()
        p.register(TA)
        cls, attr = p.handler(p.label_id("TA::e2"))
        assert cls is TA and attr == "e2"

    def test_non_event_methods_not_registered(self):
        p = Program()
        p.register(TA)
        with pytest.raises(ProgramError):
            p.label_id("TA::helper")

    def test_inherited_events_registered_for_subclass(self):
        p = Program()
        p.register(TB)
        for name in ("e1", "e2", "e3"):
            cls, _ = p.handler(p.label_id(f"TB::{name}"))
            assert cls is TB

    def test_reregistration_is_idempotent(self):
        p = Program()
        p.register(TA)
        before = list(p.labels())
        p.register(TA)
        assert list(p.labels()) == before

    def test_name_collision_rejected(self):
        p = Program()
        p.register(TA)

        class TA2(UDThread):  # same __name__ via type()
            @event
            def x(self, ctx):
                pass

        TA2.__name__ = "TA"
        with pytest.raises(ProgramError):
            p.register(TA2)

    def test_eventless_class_rejected(self):
        p = Program()

        class Empty(UDThread):
            pass

        with pytest.raises(ProgramError):
            p.register(Empty)

    def test_unknown_lookups_raise(self):
        p = Program()
        with pytest.raises(ProgramError):
            p.label_id("Nope::e")
        with pytest.raises(ProgramError):
            p.label_name(99)
        p.register(TA)
        with pytest.raises(ProgramError):
            p.label_name(-1)  # not the last registered label
        with pytest.raises(ProgramError):
            p.handler(99)

    def test_decorator_usage(self):
        p = Program()

        @p.register
        class TDec(UDThread):
            @event
            def go(self, ctx):
                pass

        assert p.label_id("TDec::go") >= 0

    def test_label_of(self):
        p = Program()
        p.register(TA)
        assert p.label_of(TA, "e1") == "TA::e1"
        with pytest.raises(ProgramError):
            p.label_of(TA, "missing")
