"""Every source file parses as the oldest Python that pyproject.toml declares.

The suite may run on a newer interpreter only, so syntax such as
``except*`` (3.11) or PEP 695 type parameters (3.12) would otherwise go
unnoticed until someone installs the package on the declared floor.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FLOOR = (3, 10)
SOURCES = sorted(p for folder in ("src", "tests", "demos") for p in (ROOT / folder).rglob("*.py"))


def test_floor_is_the_declared_one():
    declared = re.search(r'requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    assert tuple(int(v) for v in declared.groups()) == FLOOR


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)
