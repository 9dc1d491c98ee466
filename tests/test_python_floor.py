"""Every Python file parses at the oldest Python that ``pyproject.toml``
declares, so syntax newer than ``requires-python`` cannot slip in unnoticed
when the tests run on a newer interpreter."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path for top in ("src", "tests", "bench") for path in (ROOT / top).rglob("*.py")
    if not any(part.startswith(".") for part in path.relative_to(ROOT).parts)
)


def requires_python_floor() -> tuple[int, int]:
    # A regex, not tomllib, so the test itself runs at the floor.
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', pyproject, re.M).groups()
    return int(major), int(minor)


def test_the_floor_is_read_from_pyproject():
    assert requires_python_floor() >= (3, 10)
    assert len(SOURCES) > 20


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_source_parses_at_the_requires_python_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=requires_python_floor())
