"""Every script CI and the docs name exists in the tree.

A deleted or renamed ``benchmarks/`` / ``tests/`` / ``examples/`` file
whose CI step, verify recipe or doc citation stays behind fails here,
in tier-1, instead of on the next push (or never, for the docs).
"""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

CITING_FILES = (
    ".github/workflows/ci.yml",
    ".claude/skills/verify/SKILL.md",
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
)

#: a literal ``.py`` path under one of the three script directories.
#: Globs (``bench_*.py``) do not match; ``<rev>:path`` — git's spelling
#: of a file as it was at a commit — is history, not a live reference.
SCRIPT_PATH = re.compile(
    r"(?<![\w/:])(?:benchmarks|tests|examples)/[\w/.-]+?\.py\b"
)


@pytest.mark.parametrize("citing", CITING_FILES)
def test_cited_script_paths_exist(citing):
    cited = set(SCRIPT_PATH.findall((REPO / citing).read_text()))
    assert cited, f"{citing} names no script — has the pattern rotted?"
    missing = sorted(p for p in cited if not (REPO / p).is_file())
    assert not missing, f"{citing} names files that do not exist: {missing}"
