"""Fold a cProfile run into host time per layer (layer = repo module).

The table below is the whole attribution rule: a function's *self* time
(``tottime`` — its span minus the spans of everything it calls) goes to
the layer that owns its source file.  Code outside ``src/repro`` —
C built-ins and library Python alike — has no layer of its own, so the
profiler's caller table is used to charge it to whichever layer called
it (through further outside frames if need be); ``_heapq`` is the one
exception, because the event heap *is* a layer.
Shares locate a saving, they do not size it: cProfile taxes every Python
call but not the work inside native code (see README, "Distortion").
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Tuple

#: report order; ``other`` is last and catches what no rule names.
LAYERS = (
    "heap",
    "machine.simulator",
    "machine.events",
    "machine.network",
    "machine.memory",
    "machine.parallel",
    "memmodel",
    "udweave",
    "udweave.ir",
    "kvmsr",
    "datastruct",
    "apps",
    "faults",
    "observe",
    "service",
    "graph",
    "harness",
    "other",
)

#: ``src/repro/<package>`` -> layer.  Every package must appear (the test
#: suite walks the directory), so a new one cannot fall into ``other``
#: unnoticed.  The three mapped to ``other`` on purpose are not on any
#: workload's drain path: oracles, CLI tools, the WF2 workflow.
PACKAGE_LAYER = {
    "apps": "apps",
    "baselines": "other",
    "datastruct": "datastruct",
    "faults": "faults",
    "graph": "graph",
    "harness": "harness",
    "kvmsr": "kvmsr",
    "machine": "machine.simulator",
    "memmodel": "memmodel",
    "observe": "observe",
    "service": "service",
    "tools": "other",
    "udweave": "udweave",
    "workflows": "other",
}

#: files that are a layer of their own inside their package.
FILE_LAYER = {
    "machine/events.py": "machine.events",
    "machine/network.py": "machine.network",
    "machine/memory.py": "machine.memory",
    "machine/parallel.py": "machine.parallel",
    "udweave/ir.py": "udweave.ir",
}

_MARKER = "/src/repro/"

Func = Tuple[str, int, str]  # pstats key: (filename, lineno, name)


def layer_of(func: Func) -> Optional[str]:
    """The layer owning ``func``, or ``None`` for code outside the repo."""
    filename, _lineno, name = func
    if filename == "~":
        return "heap" if "_heapq." in name else None
    if filename.startswith("<batch:"):
        # the batch core udweave/ir.py generates and exec()s per label;
        # should that pseudo-filename change, its time falls to the callers
        return "udweave.ir"
    at = filename.replace("\\", "/").rfind(_MARKER)
    if at < 0:
        return None
    rel = filename[at + len(_MARKER):]
    if rel in FILE_LAYER:
        return FILE_LAYER[rel]
    package = rel.split("/", 1)[0]
    # a top-level module (repro/__init__.py) or an unmapped package
    return PACKAGE_LAYER.get(package, "other")


def _owners(func: Func, stats: Dict[Func, tuple],
            memo: Dict[Func, Dict[str, float]], stack: set) -> Dict[str, float]:
    """Layer weights (summing to 1) of the repo code ``func`` ran for.

    Repo code owns itself.  Code outside the repo is owned by whoever
    called it, weighted by cumulative time per caller and followed up
    through further outside frames (``parallel.py`` ->
    ``multiprocessing/connection.py`` -> ``select.poll``), so a wait
    inside the standard library lands on the layer that asked for it.
    """
    layer = layer_of(func)
    if layer is not None:
        return {layer: 1.0}
    if func in memo:
        return memo[func]
    callers = stats[func][4] if func in stats else {}
    total = sum(ct for _nc, _cc, _tt, ct in callers.values())
    if total <= 0 or func in stack:  # a profile root, or recursion
        return {"other": 1.0}
    stack.add(func)
    out: Dict[str, float] = {}
    for caller, (_nc, _cc, _tt, ct) in callers.items():
        for name, weight in _owners(caller, stats, memo, stack).items():
            out[name] = out.get(name, 0.0) + weight * ct / total
    stack.discard(func)
    memo[func] = out
    return out


def fold(stats: Dict[Func, tuple]) -> Dict[str, Dict[str, float]]:
    """``pstats.Stats(...).stats`` -> ``{layer: {self_s, calls, share}}``.

    Self times are conserved: every function's ``tottime`` lands in
    layers whose weights sum to 1, so the layers sum to the profile
    total.  ``calls`` counts calls of the layer's own functions only
    (plus the ``_heapq`` built-ins for ``heap``).
    """
    out = {name: {"self_s": 0.0, "calls": 0} for name in LAYERS}
    memo: Dict[Func, Dict[str, float]] = {}
    for func, (_cc, ncalls, tottime, _ct, callers) in stats.items():
        layer = layer_of(func)
        if layer is not None:
            out[layer]["self_s"] += tottime
            out[layer]["calls"] += ncalls
            continue
        # outside the repo: the caller table holds, per caller, the part
        # of this function's self time spent on that caller's behalf
        charged = 0.0
        for caller, (_nc, _ccc, caller_tt, _cct) in callers.items():
            for name, weight in _owners(caller, stats, memo, set()).items():
                out[name]["self_s"] += caller_tt * weight
            charged += caller_tt
        # a profile root has no callers; keep its time so sums conserve
        out["other"]["self_s"] += tottime - charged
    total = sum(row["self_s"] for row in out.values())
    for row in out.values():
        row["share"] = row["self_s"] / total if total > 0 else 0.0
    return out


def uncovered_packages(src_repro: Path) -> list:
    """Packages under ``src/repro`` that the table does not name."""
    return sorted(
        p.name
        for p in src_repro.iterdir()
        if p.is_dir() and (p / "__init__.py").exists()
        and p.name not in PACKAGE_LAYER
    )
