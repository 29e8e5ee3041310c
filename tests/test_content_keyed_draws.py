"""Run-time randomness stays content-keyed.

Every draw the simulated machine makes at run time — fault decisions,
service arrivals — hashes a content key through a splitmix mixer
(``repro/faults/plan.py``, ``repro/service/arrivals.py``).  A shared
stateful RNG would be consumed in a different order by sequential and
sharded drains, so results would stop being shard-invariant.  This
walks the run-time packages and fails on any use of Python's ``random``
module or NumPy's ``np.random``.  Input generators (``repro/graph``,
``repro/apps``) build workloads before a run starts and are out of scope.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

RUNTIME_PACKAGES = (
    "machine", "kvmsr", "udweave", "faults", "service", "observe", "harness",
)

NUMPY_NAMES = {"np", "numpy"}


def _rng_uses(tree):
    """``(line, what)`` for every stateful-RNG import or reference."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                if top == "random" or alias.name.startswith("numpy.random"):
                    yield node.lineno, f"import {alias.name}"
        elif isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if mod.split(".")[0] == "random" or mod.startswith("numpy.random"):
                yield node.lineno, f"from {mod} import ..."
            elif mod == "numpy" and any(a.name == "random" for a in node.names):
                yield node.lineno, "from numpy import random"
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "random"
            and isinstance(node.value, ast.Name)
            and node.value.id in NUMPY_NAMES
        ):
            yield node.lineno, f"{node.value.id}.random"


def _modules():
    for pkg in RUNTIME_PACKAGES:
        yield from sorted((SRC / pkg).rglob("*.py"))


def test_the_runtime_packages_exist():
    for pkg in RUNTIME_PACKAGES:
        assert (SRC / pkg / "__init__.py").is_file(), pkg


@pytest.mark.parametrize(
    "path", list(_modules()), ids=lambda p: str(p.relative_to(SRC))
)
def test_no_stateful_rng(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"line {ln}: {what}" for ln, what in _rng_uses(tree)]
    assert not found, (
        f"{path.relative_to(SRC)} uses a stateful RNG ({'; '.join(found)}); "
        "run-time draws must be content-keyed (see repro/faults/plan.py)"
    )


@pytest.mark.parametrize(
    "source",
    [
        "import random",
        "import random as r",
        "from random import Random",
        "import numpy.random",
        "from numpy import random",
        "from numpy.random import default_rng",
        "import numpy as np\nx = np.random.default_rng(0)",
        "import numpy\nnumpy.random.seed(1)",
    ],
)
def test_guard_catches(source):
    assert list(_rng_uses(ast.parse(source)))


def test_guard_ignores_content_keyed_code():
    source = "import numpy as np\nx = np.zeros(3)\nrandomized = 1\n"
    assert not list(_rng_uses(ast.parse(source)))
