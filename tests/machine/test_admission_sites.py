"""The fabric and DRAM channel cost rules, and message issue, each live
in one place.

Every serially-occupied channel is charged by a single function:
``Network.deliver_time`` (message leg) and ``Network.dram_hop`` (DRAM
legs) for the injection channels, ``MemoryChannel.service`` for DRAM.
An inlined copy elsewhere — a hot-path "optimization" in the simulator or
KVMSR — would silently skip the recorder sample the real site takes,
which is exactly what used to force parking off for recorded drains.
This walks ``src/repro`` and fails on any assignment to a channel's
``free_at`` / ``bytes_injected`` outside those sites (constructors
aside).

One level up, every lane-bound message — sent onto the heap or parked
on its destination lane — is keyed, priced, counted and placed by
``Simulator.issue``, and every split-phase DRAM access by
``Simulator.dram_issue``.  The same walk fails on an actor-sequence bump,
an issuing-actor derivation, or a ``messages_*`` / ``dram_*`` count
anywhere else, and on any other module reading the issue site's private
state.  A remote DRAM access is served at its memory node only when its
``DramAccess`` request leg pops in ``Simulator._drain``: no synchronous
serve-at-issue path jumps the node's arrival order or its fail-stop
check.

A DRAM read returns at most eight words (the operand registers), so a
list is read in chunks — and ``LaneContext.send_dram_reads`` is the only
code that does the chunking: no other module loops over a stepped
``range`` around ``send_dram_read``, and the width is always spelled
``MAX_DRAM_READ_WORDS``.

A lane's parked records live in per-actor runs (``Lane.streams``) under
a heap of their heads (``Lane.parked``), each run a set of columns
(``times``, ``counts``, ``payloads``) read from index ``head``.  Only
``Simulator.issue`` (with its out-of-order helper ``_park_late``) and
``Simulator._flush_parked`` mutate any of them, and nothing treats
``.parked`` as a sorted list any more: no ``insort`` or ``bisect*`` call
takes it.

At the end of every drain, sequential or sharded, ``Simulator._settle``
is the one place that delivers host mail into ``host_inbox`` and files
the quiescence verdict; the window loop in ``machine/parallel.py`` keeps
no copy of either.

A host driver waits for its job through ``UpDownRuntime.call`` (or
``KVMSRJob.run``, which calls it): no app or data structure starts a job
with ``launch`` or reads ``host_messages`` itself, and only ``call`` and
``PartialMatchApp.run_stream`` (a stream of records, one completion
each) raise ``Simulator.incomplete``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

CHANNEL_FIELDS = {"free_at", "bytes_injected"}

#: module (relative to ``src/repro``) → functions allowed to assign.
ADMISSION_SITES = {
    "machine/network.py": {"__init__", "deliver_time", "dram_hop"},
    "machine/memory.py": {"__init__", "service"},
}


def _assigned_attrs(target):
    if isinstance(target, ast.Attribute):
        yield target.attr
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _assigned_attrs(elt)


class _Finder(ast.NodeVisitor):
    def __init__(self):
        self.func = "<module>"
        self.hits = []  # (function, line, field)

    def visit_FunctionDef(self, node):
        outer, self.func = self.func, node.name
        self.generic_visit(node)
        self.func = outer

    def _check(self, node, targets):
        for target in targets:
            for attr in _assigned_attrs(target):
                if attr in CHANNEL_FIELDS:
                    self.hits.append((self.func, node.lineno, attr))

    def visit_Assign(self, node):
        self._check(node, node.targets)
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        self._check(node, [node.target])
        self.generic_visit(node)

    def visit_AnnAssign(self, node):
        self._check(node, [node.target])
        self.generic_visit(node)


def _channel_writes():
    for path in sorted(SRC.rglob("*.py")):
        finder = _Finder()
        finder.visit(ast.parse(path.read_text(), filename=str(path)))
        rel = path.relative_to(SRC).as_posix()
        for func, line, attr in finder.hits:
            yield rel, func, line, attr


def test_channel_state_is_assigned_only_at_the_admission_sites():
    writes = list(_channel_writes())
    assert writes, "no channel writes found — has the walk rotted?"
    stray = [
        f"{rel}:{line} {func}() assigns .{attr}"
        for rel, func, line, attr in writes
        if func not in ADMISSION_SITES.get(rel, ())
    ]
    assert not stray, "channel cost arithmetic copied outside its site:\n" + (
        "\n".join(stray)
    )
    # both rules are really charged where this test says they are
    charged = {(rel, func) for rel, func, _line, _attr in writes}
    for rel, funcs in ADMISSION_SITES.items():
        assert {(rel, f) for f in funcs} <= charged


def test_kvmsr_prices_parked_records_through_the_network():
    tree = ast.parse((SRC / "kvmsr" / "engine.py").read_text())
    imported = {
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
    } | {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }
    assert "repro.machine.network" not in imported
    # parking is the issue site's step, not KVMSR's
    assert "bisect" not in imported


SIMULATOR = "machine/simulator.py"

#: functions allowed to bump an actor's sequence (``_actor_seq[a] = ...``).
SEQ_SITES = {"_push", "issue", "_issue_guarded"}

#: functions that derive the issuing actor (``actor = ...``): one for
#: messages, one for DRAM accesses.
ACTOR_SITES = {"issue", "dram_issue"}

#: functions allowed to call ``_dram_arrive``: only the drain loop, when
#: a ``DramAccess`` pops at its memory node's virtual id.
ARRIVE_SITES = {"_drain"}

#: DRAM traffic counters: bumped once per run by ``dram_issue``.
DRAM_COUNTERS = {
    "dram_reads",
    "dram_writes",
    "dram_bytes_read",
    "dram_bytes_written",
    "dram_remote_accesses",
}

#: the message taxonomy; ``messages_sent`` is partitioned by the others.
MESSAGE_COUNTERS = {
    "messages_sent",
    "messages_local",
    "messages_remote",
    "messages_host_injected",
    "messages_host_bound",
}

#: the issue site's private state — names no other module may touch.
ISSUE_PRIVATES = {
    "ACTOR_SEQ_BITS", "_actor_seq", "_deliver_time", "_rec_msg",
    "_message_bytes",
}


class _IssueFinder(ast.NodeVisitor):
    """Per function: actor-sequence writes, message-counter increments,
    and every use of an issue-site private."""

    def __init__(self):
        self.func = "<module>"
        self.aliases = set()  # local names bound to ``<x>._actor_seq``
        self.seq_writes = []  # (function, line)
        self.actors = []  # (function, line)
        self.counts = []  # (function, line, counter)
        self.privates = []  # (function, line, name)
        self.arrivals = []  # (function, line) calls of ``_dram_arrive``

    def visit_FunctionDef(self, node):
        saved = self.func, self.aliases
        self.func, self.aliases = node.name, set()
        self.generic_visit(node)
        self.func, self.aliases = saved

    def _is_seq(self, node):
        return (
            isinstance(node, ast.Attribute) and node.attr == "_actor_seq"
        ) or (isinstance(node, ast.Name) and node.id in self.aliases)

    def _targets(self, node, targets):
        for target in targets:
            if isinstance(target, ast.Subscript) and self._is_seq(
                target.value
            ):
                self.seq_writes.append((self.func, node.lineno))

    def visit_Assign(self, node):
        if self._is_seq(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.aliases.add(target.id)
        for target in node.targets:
            if isinstance(target, ast.Name) and target.id == "actor":
                self.actors.append((self.func, node.lineno))
        self._targets(node, node.targets)
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        self._targets(node, [node.target])
        attr = getattr(node.target, "attr", None)
        if attr in MESSAGE_COUNTERS | DRAM_COUNTERS:
            self.counts.append((self.func, node.lineno, attr))
        self.generic_visit(node)

    def visit_Call(self, node):
        fn = node.func
        if getattr(fn, "attr", getattr(fn, "id", None)) == "_dram_arrive":
            self.arrivals.append((self.func, node.lineno))
        self.generic_visit(node)

    def visit_Attribute(self, node):
        if node.attr in ISSUE_PRIVATES:
            self.privates.append((self.func, node.lineno, node.attr))
        self.generic_visit(node)

    def visit_Name(self, node):
        if node.id in ISSUE_PRIVATES:
            self.privates.append((self.func, node.lineno, node.id))

    def visit_alias(self, node):
        if node.name in ISSUE_PRIVATES:
            self.privates.append((self.func, node.lineno, node.name))


def _issue_findings():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        finder = _IssueFinder()
        finder.visit(ast.parse(path.read_text(), filename=str(path)))
        found[path.relative_to(SRC).as_posix()] = finder
    return found


def test_actor_sequences_are_bumped_only_at_the_issue_site():
    found = _issue_findings()
    writes = {
        (rel, func)
        for rel, finder in found.items()
        for func, _line in finder.seq_writes
    }
    assert writes == {(SIMULATOR, f) for f in SEQ_SITES}


def test_the_issuing_actor_is_derived_only_at_the_issue_sites():
    found = _issue_findings()
    derived = {
        (rel, func)
        for rel, finder in found.items()
        for func, _line in finder.actors
    }
    assert derived == {(SIMULATOR, f) for f in ACTOR_SITES}


def test_remote_dram_is_served_only_when_its_arrival_pops():
    found = _issue_findings()
    served = {
        (rel, func)
        for rel, finder in found.items()
        for func, _line in finder.arrivals
    }
    assert served == {(SIMULATOR, f) for f in ARRIVE_SITES}


def _counted(counters):
    return [
        (rel, func, attr)
        for rel, finder in _issue_findings().items()
        for func, _line, attr in finder.counts
        if attr in counters
    ]


def test_message_taxonomy_is_counted_only_by_issue():
    counts = _counted(MESSAGE_COUNTERS)
    assert {(rel, func) for rel, func, _attr in counts} == {
        (SIMULATOR, "issue")
    }
    assert {attr for _rel, _func, attr in counts} == MESSAGE_COUNTERS


def test_dram_traffic_is_counted_only_by_the_dram_issue_site():
    counts = _counted(DRAM_COUNTERS)
    assert {(rel, func) for rel, func, _attr in counts} == {
        (SIMULATOR, "dram_issue")
    }
    assert {attr for _rel, _func, attr in counts} == DRAM_COUNTERS


#: the one module allowed to split a list into split-phase reads.
CHUNKING_SITE = "udweave/context.py"


def _calls(node, name):
    return any(
        isinstance(sub, ast.Call)
        and getattr(sub.func, "attr", getattr(sub.func, "id", None)) == name
        for sub in ast.walk(node)
    )


def _chunk_loops(tree):
    """Lines of ``for`` loops over a stepped ``range(a, b, step)`` whose
    body issues ``send_dram_read``."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.For)
        and isinstance(node.iter, ast.Call)
        and getattr(node.iter.func, "id", None) == "range"
        and len(node.iter.args) == 3
        and any(_calls(stmt, "send_dram_read") for stmt in node.body)
    ]


def _literal_widths(tree):
    """Lines of ``min(8, ...)`` — a read width not spelled by name."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "min"
        and any(
            isinstance(arg, ast.Constant) and arg.value == 8
            for arg in node.args
        )
    ]


def test_lists_are_chunked_into_dram_reads_at_one_site():
    stray = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        if rel != CHUNKING_SITE:
            stray += [f"{rel}:{n} chunk loop" for n in _chunk_loops(tree)]
        stray += [f"{rel}:{n} min(8, ...)" for n in _literal_widths(tree)]
    assert not stray, "DRAM-read chunking outside send_dram_reads:\n" + (
        "\n".join(stray)
    )


def test_the_chunk_walk_sees_a_chunk_loop():
    """Guard against a walk that rotted into matching nothing."""
    tree = ast.parse(
        "for i in range(0, n, 8):\n"
        "    k = min(8, n - i)\n"
        "    ctx.send_dram_read(va + 8 * i, k, 'back')\n"
    )
    assert _chunk_loops(tree) == [1]
    assert _literal_widths(tree) == [2]


def test_no_other_module_reads_the_issue_sites_private_state():
    stray = [
        f"{rel}:{line} {func}() names {name}"
        for rel, finder in _issue_findings().items()
        if rel != SIMULATOR
        for func, line, name in finder.privates
    ]
    assert not stray, "issue bookkeeping copied outside Simulator.issue:\n" + (
        "\n".join(stray)
    )


#: what a drain end files — the host mailbox and the quiescence verdict.
VERDICT_FIELDS = {"quiesced", "pending_threads"}
INBOX_MUTATORS = {"append", "extend", "insert"}


class _DrainEndFinder(ast.NodeVisitor):
    """Per function: mutations of ``host_inbox`` (through a local alias
    too), assignments to the verdict fields, and every name used."""

    def __init__(self):
        self.func = "<module>"
        self.aliases = set()  # local names bound to ``<x>.host_inbox``
        self.inbox_writes = []  # (function, line)
        self.verdicts = []  # (function, line, field)
        self.names = []  # (function, name) for attributes and names
        self.methods = {}  # class -> method names

    def visit_ClassDef(self, node):
        self.methods[node.name] = {
            n.name for n in node.body if isinstance(n, ast.FunctionDef)
        }
        self.generic_visit(node)

    def visit_FunctionDef(self, node):
        saved = self.func, self.aliases
        self.func, self.aliases = node.name, set()
        self.generic_visit(node)
        self.func, self.aliases = saved

    def _is_inbox(self, node):
        return (
            isinstance(node, ast.Attribute) and node.attr == "host_inbox"
        ) or (isinstance(node, ast.Name) and node.id in self.aliases)

    def visit_Assign(self, node):
        if self._is_inbox(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.aliases.add(target.id)
        for target in node.targets:
            for attr in _assigned_attrs(target):
                if attr in VERDICT_FIELDS:
                    self.verdicts.append((self.func, node.lineno, attr))
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        if self._is_inbox(node.target):
            self.inbox_writes.append((self.func, node.lineno))
        for attr in _assigned_attrs(node.target):
            if attr in VERDICT_FIELDS:
                self.verdicts.append((self.func, node.lineno, attr))
        self.generic_visit(node)

    def visit_Call(self, node):
        fn = node.func
        if (
            isinstance(fn, ast.Attribute)
            and fn.attr in INBOX_MUTATORS
            and self._is_inbox(fn.value)
        ):
            self.inbox_writes.append((self.func, node.lineno))
        self.generic_visit(node)

    def visit_Attribute(self, node):
        self.names.append((self.func, node.attr))
        self.generic_visit(node)

    def visit_Name(self, node):
        self.names.append((self.func, node.id))


def _drain_end_findings():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        finder = _DrainEndFinder()
        finder.visit(ast.parse(path.read_text(), filename=str(path)))
        found[path.relative_to(SRC).as_posix()] = finder
    return found


def test_host_mail_and_quiescence_are_filed_only_by_settle():
    found = _drain_end_findings()
    inbox = {
        (rel, func)
        for rel, finder in found.items()
        for func, _line in finder.inbox_writes
    }
    assert inbox == {(SIMULATOR, "_settle")}
    verdicts = {
        (rel, func, attr)
        for rel, finder in found.items()
        for func, _line, attr in finder.verdicts
    }
    assert verdicts == {(SIMULATOR, "_settle", f) for f in VERDICT_FIELDS}


def test_the_window_loop_keeps_no_drain_end_of_its_own():
    found = _drain_end_findings()
    parallel = found["machine/parallel.py"]
    touched = {name for _func, name in parallel.names}
    assert not touched & (VERDICT_FIELDS | {"host_inbox", "_host_mail"})
    assert parallel.methods["ShardScheduler"] == {
        "__init__", "_route", "drain", "_head",
    }
    # the retired second copies are gone everywhere
    for rel, finder in found.items():
        for name in ("_note_quiescence", "_take_queued", "_host_entries"):
            assert name not in {n for _f, n in finder.names}, (rel, name)
            for methods in finder.methods.values():
                assert name not in methods, (rel, name)
    # the drain loop pops only lane and DRAM deliveries
    drain = {name for func, name in found[SIMULATOR].names if func == "_drain"}
    assert not drain & {"host_inbox", "_host_mail", "HOST_NWID"}


#: a lane's parking structures: the heap of run heads, the runs, and
#: each run's columns and head index.
PARK_FIELDS = {"parked", "streams", "times", "counts", "payloads", "head"}

#: the functions in ``machine/simulator.py`` allowed to mutate them.
PARK_SITES = {"issue", "_park_late", "_flush_parked"}

#: list / deque / dict methods that mutate their receiver.
MUTATING_METHODS = {
    "append", "appendleft", "extend", "extendleft", "insert", "pop",
    "popleft", "popitem", "remove", "clear", "sort", "reverse", "rotate",
    "setdefault", "update",
}

#: ``heapq`` / ``bisect`` functions that mutate their first argument.
MUTATING_FUNCS = {
    "heappush", "heappop", "heapreplace", "heappushpop", "heapify",
    "insort", "insort_left", "insort_right",
}

#: the sorted-list toolkit the old parking path ran on ``.parked``.
SORTED_LIST_FUNCS = {
    "insort", "insort_left", "insort_right",
    "bisect", "bisect_left", "bisect_right",
}


def _flat(target):
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _flat(elt)
    elif isinstance(target, ast.Starred):
        yield from _flat(target.value)
    else:
        yield target


class _ParkFinder(ast.NodeVisitor):
    """Per function: mutations of a lane's parking structures (through
    local aliases, ``streams`` lookups included) and sorted-list calls
    on ``.parked``."""

    def __init__(self):
        self.func = "<module>"
        self.aliases = {}  # local name -> the park field it aliases
        self.writes = []  # (function, line)
        self.sorted_calls = []  # (function, line, callee)

    def visit_FunctionDef(self, node):
        saved = self.func, self.aliases
        self.func, self.aliases = node.name, {}
        self.generic_visit(node)
        self.func, self.aliases = saved

    def _field(self, node):
        """The park field ``node`` reads (or aliases), else ``None``."""
        if isinstance(node, ast.Attribute) and node.attr in PARK_FIELDS:
            return node.attr
        if isinstance(node, ast.Name):
            return self.aliases.get(node.id)
        if isinstance(node, ast.Subscript):
            return self._field(node.value)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
        ):
            return self._field(node.func.value)
        return None

    def _writes(self, node, targets):
        for target in targets:
            for sub in _flat(target):
                if (
                    isinstance(sub, ast.Attribute) and sub.attr in PARK_FIELDS
                ) or (
                    isinstance(sub, ast.Subscript) and self._field(sub.value)
                ):
                    self.writes.append((self.func, node.lineno))

    def visit_Assign(self, node):
        field = self._field(node.value) or next(
            (
                self._field(t.value)
                for t in node.targets
                if isinstance(t, ast.Subscript) and self._field(t.value)
            ),
            None,
        )
        if field:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.aliases[target.id] = field
        self._writes(node, node.targets)
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        self._writes(node, [node.target])
        self.generic_visit(node)

    def visit_Delete(self, node):
        self._writes(node, node.targets)
        self.generic_visit(node)

    def visit_Call(self, node):
        fn = node.func
        name = getattr(fn, "attr", getattr(fn, "id", None))
        if isinstance(fn, ast.Attribute) and name in MUTATING_METHODS:
            if self._field(fn.value):
                self.writes.append((self.func, node.lineno))
        elif node.args:
            field = self._field(node.args[0])
            if field and name in MUTATING_FUNCS:
                self.writes.append((self.func, node.lineno))
            if field == "parked" and name in SORTED_LIST_FUNCS:
                self.sorted_calls.append((self.func, node.lineno, name))
        self.generic_visit(node)


def _park_findings(tree):
    finder = _ParkFinder()
    finder.visit(tree)
    return finder


def test_lanes_park_and_flush_only_at_the_issue_and_flush_sites():
    writes, sorted_calls = set(), []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        finder = _park_findings(ast.parse(path.read_text(), filename=str(path)))
        writes |= {(rel, func, line) for func, line in finder.writes}
        sorted_calls += [
            f"{rel}:{line} {func}() calls {name} on .parked"
            for func, line, name in finder.sorted_calls
        ]
    stray = [
        f"{rel}:{line} {func}() mutates a lane's parked records"
        for rel, func, line in sorted(writes)
        if func != "__init__"  # constructors aside
        and not (rel == SIMULATOR and func in PARK_SITES)
    ]
    assert not stray, "parking outside issue/_flush_parked:\n" + (
        "\n".join(stray)
    )
    assert not sorted_calls, "\n".join(sorted_calls)
    # every site really is one the walk sees
    assert {(SIMULATOR, f) for f in PARK_SITES} <= {
        (rel, func) for rel, func, _line in writes
    }


def test_the_park_walk_sees_the_sorted_list():
    """Guard against a walk that rotted into matching nothing: the
    sorted-list parking this repo replaced is caught on both ends."""
    finder = _park_findings(ast.parse(
        "def issue(dest, entry):\n"
        "    insort(dest.parked, entry)\n"
        "def _flush_parked(ln, cut):\n"
        "    lst = ln.parked\n"
        "    n = bisect_left(lst, cut)\n"
        "    del lst[:n]\n"
        "def elsewhere(ln, actor, entry):\n"
        "    ln.streams.get(actor).append(entry)\n"
        "def columns(run, t):\n"
        "    times = run.times\n"
        "    times.append(t)\n"
        "    del run.counts[:1]\n"
        "    run.head += 1\n"
    ))
    assert finder.writes == [
        ("issue", 2), ("_flush_parked", 6), ("elsewhere", 8),
        ("columns", 11), ("columns", 12), ("columns", 13),
    ]
    assert finder.sorted_calls == [
        ("issue", 2, "insort"), ("_flush_parked", 5, "bisect_left"),
    ]


#: packages whose host drivers wait only through ``UpDownRuntime.call``.
DRIVER_PACKAGES = ("apps", "datastruct")
#: calls that start or read a completion by hand.
HAND_WAIT_CALLS = {"host_messages", "launch"}
#: the functions allowed to raise a missing completion.
INCOMPLETE_SITES = {
    ("udweave/runtime.py", "call"),
    ("apps/partial_match.py", "run_stream"),
}


class _CallFinder(ast.NodeVisitor):
    """``(function, line, name)`` of every call whose callee is named in
    ``names`` (``f(...)`` or ``x.f(...)``)."""

    def __init__(self, names):
        self.names = names
        self.func = "<module>"
        self.hits = []

    def visit_FunctionDef(self, node):
        outer, self.func = self.func, node.name
        self.generic_visit(node)
        self.func = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name in self.names:
            self.hits.append((self.func, node.lineno, name))
        self.generic_visit(node)


def _call_findings(tree, names):
    finder = _CallFinder(names)
    finder.visit(tree)
    return finder.hits


def test_host_drivers_wait_only_through_runtime_call():
    stray, raisers = [], set()
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        if rel.split("/")[0] in DRIVER_PACKAGES:
            stray += [
                f"{rel}:{line} {func}() calls {name}"
                for func, line, name in _call_findings(tree, HAND_WAIT_CALLS)
            ]
        raisers |= {
            (rel, func)
            for func, _line, _name in _call_findings(tree, {"incomplete"})
        }
    assert not stray, "completion wait written out by hand:\n" + (
        "\n".join(stray)
    )
    assert raisers == INCOMPLETE_SITES


def test_the_wait_walk_sees_a_hand_written_wait():
    """Guard against a walk that rotted into matching nothing."""
    tree = ast.parse(
        "def run(self):\n"
        "    self.job.launch(cont_tag='done')\n"
        "    rt.run()\n"
        "    if not rt.host_messages('done'):\n"
        "        raise rt.sim.incomplete('job did not complete')\n"
    )
    assert _call_findings(tree, HAND_WAIT_CALLS | {"incomplete"}) == [
        ("run", 2, "launch"), ("run", 4, "host_messages"),
        ("run", 5, "incomplete"),
    ]
