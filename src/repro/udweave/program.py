"""Program image: the registry of thread classes and event labels.

A UDWeave program is a set of thread definitions, each containing events
(paper §2.1.1).  In this embedded-Python rendering, a thread definition is
a subclass of :class:`repro.udweave.thread.UDThread` whose event handlers
are methods decorated with ``@event``.  Registering the class with a
:class:`Program` assigns each event a stable integer *label ID* — the value
carried in event words — and records which class owns it so the dispatcher
can instantiate new threads on demand.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from .eventword import MAX_LABEL_ID, EventWordError


class ProgramError(RuntimeError):
    """Raised for duplicate registrations or unknown labels."""


class Program:
    """Label registry mapping ``Class::event`` names to IDs and back."""

    def __init__(self) -> None:
        self._label_ids: Dict[str, int] = {}
        self._label_names: List[str] = []
        #: label id -> (thread class, handler attribute name)
        self._handlers: Dict[int, Tuple[type, str]] = {}
        self._classes: Dict[str, type] = {}
        #: label id -> (thread class, handler function) — the dispatch
        #: table.  Indexing a list by the interned ``label_id`` replaces
        #: a string dict lookup + attribute ``getattr`` on every event;
        #: the function is called unbound (``func(thread, ctx, *ops)``)
        #: so no bound-method object is created per dispatch.
        self.handler_table: List[Tuple[type, object]] = []

    def register(self, thread_cls: type) -> type:
        """Register a thread class and all of its ``@event`` handlers.

        Returns the class so it can be used as a decorator::

            program = Program()

            @program.register
            class TExample(UDThread):
                @event
                def reduction(self, ctx, n): ...
        """
        name = thread_cls.__name__
        if name in self._classes:
            if self._classes[name] is thread_cls:
                return thread_cls  # idempotent re-registration
            raise ProgramError(f"thread class name {name!r} already registered")
        events = _collect_events(thread_cls)
        if not events:
            raise ProgramError(f"{name} defines no @event handlers")
        self._classes[name] = thread_cls
        for attr in events:
            label = f"{name}::{attr}"
            label_id = len(self._label_names)
            if label_id > MAX_LABEL_ID:
                raise EventWordError("program exceeds the event-label space")
            self._label_ids[label] = label_id
            self._label_names.append(label)
            self._handlers[label_id] = (thread_cls, attr)
            # getattr on the class resolves through the MRO, so inherited
            # events dispatch to the most-derived override.
            self.handler_table.append((thread_cls, getattr(thread_cls, attr)))
        return thread_cls

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def label_id(self, label: str) -> int:
        """Integer ID for a ``Class::event`` label string."""
        try:
            return self._label_ids[label]
        except KeyError:
            raise ProgramError(f"unknown event label {label!r}") from None

    def label_name(self, label_id: int) -> str:
        # range-checked, not try/except IndexError: a negative id would
        # index from the end and name the last registered event
        if 0 <= label_id < len(self._label_names):
            return self._label_names[label_id]
        raise ProgramError(f"unknown label id {label_id}")

    def handler(self, label_id: int) -> Tuple[type, str]:
        """(thread class, handler attribute) owning ``label_id``."""
        try:
            return self._handlers[label_id]
        except KeyError:
            raise ProgramError(f"unknown label id {label_id}") from None

    def labels(self) -> Iterable[str]:
        return iter(self._label_names)

    def classes(self) -> Iterable[type]:
        return iter(self._classes.values())

    def label_of(self, thread_cls: type, event_name: str) -> str:
        """Canonical label string for a class + event handler name."""
        label = f"{thread_cls.__name__}::{event_name}"
        if label not in self._label_ids:
            raise ProgramError(f"{label} is not registered")
        return label


def _collect_events(thread_cls: type) -> List[str]:
    """Attribute names of ``@event``-decorated methods, in MRO order."""
    names: List[str] = []
    seen = set()
    for klass in reversed(thread_cls.__mro__):
        for attr, value in vars(klass).items():
            if getattr(value, "_udweave_event", False) and attr not in seen:
                seen.add(attr)
                names.append(attr)
    return names
