"""Public API surface: every exported name is importable and documented."""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.machine",
    "repro.udweave",
    "repro.memmodel",
    "repro.kvmsr",
    "repro.datastruct",
    "repro.graph",
    "repro.apps",
    "repro.baselines",
    "repro.harness",
    "repro.observe",
    "repro.service",
    "repro.workflows",
    "repro.tools",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_package_imports_and_documents(package):
    mod = importlib.import_module(package)
    assert mod.__doc__, f"{package} needs a module docstring"


@pytest.mark.parametrize(
    "package", [p for p in PACKAGES if p not in ("repro", "repro.tools")]
)
def test_all_exports_resolve(package):
    mod = importlib.import_module(package)
    exported = getattr(mod, "__all__", None)
    assert exported, f"{package} should declare __all__"
    for name in exported:
        assert hasattr(mod, name), f"{package}.{name} missing"


@pytest.mark.parametrize(
    "package", [p for p in PACKAGES if p not in ("repro", "repro.tools")]
)
def test_public_classes_have_docstrings(package):
    mod = importlib.import_module(package)
    for name in getattr(mod, "__all__", []):
        obj = getattr(mod, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__doc__, f"{package}.{name} needs a docstring"


def test_version_is_set():
    import repro

    assert repro.__version__


def test_quickstart_snippet_from_package_docstring():
    """The package docstring's quick start must actually run."""
    from repro.apps import PageRankApp
    from repro.graph import rmat
    from repro.machine import bench_machine
    from repro.udweave import UpDownRuntime

    rt = UpDownRuntime(bench_machine(nodes=4))
    result = PageRankApp(rt, rmat(8, seed=48), max_degree=64).run()
    assert len(result.ranks) == 256
    assert result.giga_updates_per_second > 0


def test_fingerprint_is_exported_and_says_what_it_leaves_out():
    import repro.harness as harness

    assert "fingerprint" in harness.__all__
    doc = harness.fingerprint.__doc__
    for part in ("model_snapshot", "mailbox", "busy_cycles_by_lane",
                 "scratchpad", "ServiceResult"):
        assert part in doc, part
    for left_out in ("HOST_SPLIT_KEYS", "recorder", "parallel_metrics()"):
        assert left_out in doc, left_out
