"""The fabric and DRAM channel cost rules each live in one place.

Every serially-occupied channel is charged by a single function:
``Network.deliver_time`` (message leg) and ``Network.dram_hop`` (DRAM
legs) for the injection channels, ``MemoryChannel.service`` for DRAM.
An inlined copy elsewhere — a hot-path "optimization" in the simulator or
KVMSR — would silently skip the recorder sample the real site takes,
which is exactly what used to force parking off for recorded drains.
This walks ``src/repro`` and fails on any assignment to a channel's
``free_at`` / ``bytes_injected`` outside those sites (constructors
aside).
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
    }
    assert "repro.machine.network" not in imported
