"""The documented public surface: each public name has one home, the module
that defines it, since the package ``__init__`` files bind nothing but the
version; every public module-level name is read outside the unit tests, the
README's library example runs as written and every class or ``calc.`` name
its library section names resolves on a defining module, no module imports a
name it never uses, every private module-level name is read somewhere, and
every defaulted parameter of the public API is passed by some caller."""

import ast
import re
from operator import attrgetter
from pathlib import Path
from types import SimpleNamespace

import pytest

import homogen
import homogen.calc
import homogen.diagnostics
import homogen.homogenizer
import homogen.karel.gen
import homogen.karel.interp
import homogen.karel.lang
import homogen.karel.world

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SOURCES = sorted((ROOT / "src" / "homogen").rglob("*.py"))
MODULES = [path for path in SOURCES if path.name != "__init__.py"]


def _bound_names(source: str) -> list[str]:
    """The names a module binds by assignment, definition or import,
    anywhere in it; a leading docstring binds none."""
    bound = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.append(node.id)
    return bound


def test_package_inits_define_only_the_version():
    package = ROOT / "src" / "homogen"
    assert _bound_names((package / "__init__.py").read_text(encoding="utf-8")) == ["__version__"]
    assert _bound_names((package / "karel" / "__init__.py").read_text(encoding="utf-8")) == []


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


def _unresolved_names(text: str, namespaces: list[object]) -> list[str]:
    """Backticked names in ``text`` that start with a capital or ``calc.``
    and that no namespace resolves, attribute by attribute."""
    unresolved = []
    for name in re.findall(r"`((?:[A-Z]\w*|calc\.\w+)(?:\.\w+)*)`", text):
        for namespace in namespaces:
            try:
                attrgetter(name)(namespace)
                break
            except AttributeError:
                pass
        else:
            unresolved.append(name)
    return unresolved


def test_readme_library_section_names_only_what_exists():
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    library = library.split("\n## ", 1)[0]
    # ``calc.`` names resolve on the package, of which ``calc`` is a module.
    namespaces = [
        homogen,
        homogen.homogenizer,
        homogen.diagnostics,
        homogen.karel.lang,
        homogen.karel.world,
        homogen.karel.interp,
        homogen.karel.gen,
    ]
    assert _unresolved_names(library, namespaces) == []


def test_unresolved_name_check_follows_every_attribute():
    text = "`Real`, `Real.method`, `Gone`, `Real.gone`, `calc.x`, `calc.y`, `lower`, `Real(1)`"
    namespace = SimpleNamespace(Real=SimpleNamespace(method=None), calc=SimpleNamespace(x=1))
    assert _unresolved_names(text, [namespace]) == ["Gone", "Real.gone", "calc.y"]


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    # A string annotation names its types in text, so parse it too.
    annotations = [
        ast.parse(ann.value)
        for node in ast.walk(tree)
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None))
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str)
    ]
    used = {
        node.id
        for root in (tree, *annotations)
        for node in ast.walk(root)
        if isinstance(node, ast.Name)
    }
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT / "src")))
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_check_sees_string_annotations():
    assert _unused_imports("import os\nimport re\nx: 'os.PathLike' = 1\n") == ["line 2: re"]
    assert _unused_imports("from __future__ import annotations\n") == []


def _defined_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _loaded_names(tree: ast.AST) -> set[str]:
    """The names a tree loads, by name or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
        or isinstance(node, ast.Attribute)
    }


def _dead_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_name``s (one leading underscore) that a module
    defines and no module loads, by name or as an attribute."""
    defined = {}
    loaded = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            for name in _defined_names(node):
                if name.startswith("_") and not name.startswith("__"):
                    defined.setdefault(name, module)
        loaded |= _loaded_names(tree)
    return [f"{module}: {name}" for name, module in defined.items() if name not in loaded]


def test_every_private_name_is_read():
    sources = {
        str(path.relative_to(ROOT / "src")): path.read_text(encoding="utf-8")
        for path in SOURCES
    }
    assert _dead_private_names(sources) == []


def test_dead_private_name_check_sees_every_module():
    sources = {
        "a.py": "_A = 1\n_B = 2\n_C, _D = 3, 4\ndef _f(): return _B\n",
        "b.py": "from a import _C\nimport a\nprint(_C, a._D, _f())\n__x__ = 5\n",
    }
    assert _dead_private_names(sources) == ["a.py: _A"]


def _unread_public_names(public: list[str], sources: list[str], texts: list[str]) -> list[str]:
    """Public names that no module-level statement of ``sources`` loads,
    other than the one that defines the name, and no text holds as a word."""
    read = set()
    for source in sources:
        for node in ast.parse(source).body:
            read |= _loaded_names(node) - set(_defined_names(node))
    for text in texts:
        read |= set(re.findall(r"\w+", text))
    return [name for name in public if name not in read]


READERS = [README, ROOT / "tests" / "test_acceptance.py", *sorted(ROOT.glob("bench/*.py"))]


def test_every_public_name_is_read_outside_the_unit_tests():
    sources = [path.read_text(encoding="utf-8") for path in MODULES]
    texts = [path.read_text(encoding="utf-8") for path in READERS]
    defined = [
        name
        for source in sources
        for node in ast.parse(source).body
        for name in _defined_names(node)
        if not name.startswith("_")
    ]
    assert _unread_public_names(defined, sources, texts) == []


def test_unread_public_name_check_skips_a_names_own_definition():
    sources = ["def f(n):\n    return f(n - 1)\ndef g():\n    return h\nh = 1\n"]
    assert _unread_public_names(["f", "g", "h", "k"], sources, ["calls `k`"]) == ["f", "g"]


def _defaulted_parameters(source: str) -> list[tuple[str, str, int | None]]:
    """(owner, parameter, position) for each defaulted parameter of a public
    module-level function or a public class's explicit ``__init__``; the
    position excludes ``self`` and is ``None`` for a keyword-only one."""
    found = []
    for node in ast.parse(source).body:
        func = node
        if isinstance(node, ast.ClassDef):
            func = next((item for item in node.body
                         if isinstance(item, ast.FunctionDef) and item.name == "__init__"), None)
        if not isinstance(func, ast.FunctionDef) or node.name.startswith("_"):
            continue
        args = func.args
        positional = args.posonlyargs + args.args
        if func is not node:
            positional = positional[1:]
        first = len(positional) - len(args.defaults)
        found += [(node.name, arg.arg, first + i) for i, arg in enumerate(positional[first:])]
        found += [(node.name, arg.arg, None)
                  for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default]
    return found


def _unpassed_parameters(defining: list[str], calling: list[str]) -> list[str]:
    """Defaulted public parameters of ``defining`` that no call in
    ``calling`` passes, by keyword or positionally at the parameter's index.
    A call counts for every function or class of the name it calls."""
    keywords, positions = set(), set()
    for source in calling:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            keywords |= {(name, keyword.arg) for keyword in node.keywords}
            positions |= {(name, index) for index in range(len(node.args))}
    return [
        f"{owner}.{param}"
        for source in defining
        for owner, param, index in _defaulted_parameters(source)
        if (owner, param) not in keywords and (owner, index) not in positions
    ]


# Defaulted public parameters that may stay although no caller passes them.
_UNPASSED_ALLOWED = []


def test_every_defaulted_parameter_is_passed_outside_the_unit_tests():
    sources = [path.read_text(encoding="utf-8") for path in MODULES]
    readme, *others = [path.read_text(encoding="utf-8") for path in READERS]
    calling = sources + re.findall(r"```python\n(.*?)```", readme, re.DOTALL) + others
    assert _unpassed_parameters(sources, calling) == _UNPASSED_ALLOWED


def test_unpassed_parameter_check_sees_keywords_and_positions():
    defining = [
        "def f(a, b=1, c=2, *, d=3, e=4): pass\n"
        "def _g(x=1): pass\n"
        "class K:\n    def __init__(self, x=1, y=2): pass\n"
        "class _L:\n    def __init__(self, x=1): pass\n"
        "class M:\n    pass\n",
    ]
    calling = ["f(0, 1)\nmod.f(a=0, e=5)\nK(0)\n"]
    assert _unpassed_parameters(defining, calling) == ["f.c", "f.d", "K.y"]
