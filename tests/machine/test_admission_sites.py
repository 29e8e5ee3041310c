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
``Simulator.issue``.  The same walk fails on an actor-sequence bump or a
``messages_*`` count anywhere else, and on any other module reading the
issue site's private state.
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
        self.counts = []  # (function, line, counter)
        self.privates = []  # (function, line, name)

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
        self._targets(node, node.targets)
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        self._targets(node, [node.target])
        attr = getattr(node.target, "attr", None)
        if attr in MESSAGE_COUNTERS:
            self.counts.append((self.func, node.lineno, attr))
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


def test_message_taxonomy_is_counted_only_by_issue():
    found = _issue_findings()
    counts = [
        (rel, func, attr)
        for rel, finder in found.items()
        for func, _line, attr in finder.counts
    ]
    assert {(rel, func) for rel, func, _attr in counts} == {
        (SIMULATOR, "issue")
    }
    assert {attr for _rel, _func, attr in counts} == MESSAGE_COUNTERS


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
