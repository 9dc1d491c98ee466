"""The documented public surface: every exported name resolves, and the
README's library example runs as written."""

import re
from pathlib import Path

import pytest

import homogen
import homogen.karel

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("package", [homogen, homogen.karel], ids=lambda p: p.__name__)
def test_every_exported_name_resolves(package):
    assert len(set(package.__all__)) == len(package.__all__)
    assert [name for name in package.__all__ if not hasattr(package, name)] == []
    namespace = {}
    exec(f"from {package.__name__} import *", namespace)
    assert set(package.__all__) <= namespace.keys()


def test_readme_library_example_runs(capsys):
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    exec(compile(code, f"{README}:Library", "exec"), {"__name__": "readme_example"})
    out = capsys.readouterr().out
    match = re.fullmatch(r"(\S+) draws per accepted sample\n", out)
    assert match, out
    # At epsilon 0.025 an accepted sample costs at most 1 + 1/0.025 = 41
    # draws in expectation.
    assert 1.0 <= float(match.group(1)) <= 41.0
