"""No module of the package or its tests imports a name it never uses.

An ``ast`` scan, since no linter is a dependency. A name counts as used
if it is loaded anywhere in the module, or named in a string that parses
as an expression (a quoted annotation, an ``__all__`` entry). An import
whose line carries ``# noqa: F401`` is kept on purpose and is skipped.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "qselect"


def _names_in(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _names_in_string(text: str) -> set[str]:
    """The names of ``text`` read as an expression; none if it is not one,
    or holds a lone surrogate, which ``ast.parse`` cannot encode."""
    try:
        return _names_in(ast.parse(text.strip(), mode="eval"))
    except (SyntaxError, UnicodeEncodeError):
        return set()


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of each name imported in ``source`` and never used."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*" or "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                imported[alias.asname or alias.name.partition(".")[0]] = alias.lineno
    used = _names_in(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            used |= _names_in_string(node.value)
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")), ids=lambda path: path.name
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_finds_an_unused_import():
    source = (
        "from dataclasses import dataclass, field\n"
        "import numpy as np\n"
        "from .x import kept  # noqa: F401\n"
        "X: 'np.ndarray'\n"
        "Y = '\\ud800'\n"
        "@dataclass\nclass A:\n    pass\n"
    )
    assert unused_imports(source) == [(1, "field")]


BENCH = PACKAGE.parent.parent / "bench"


def _defined(stmt: ast.stmt) -> set[str]:
    """The public names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = {stmt.name}
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = {node.id for t in targets for node in ast.walk(t) if isinstance(node, ast.Name)}
    else:
        names = set()
    return {name for name in names if not name.startswith("_")}


def _loaded(tree: ast.AST) -> set[str]:
    """Names loaded in ``tree``: bare, as an attribute, or in a quoted annotation."""
    loaded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute):
            loaded.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            loaded |= _names_in_string(node.value)
    return loaded


def _public_methods(stmt: ast.stmt) -> list[ast.FunctionDef]:
    """The public methods and properties of a public class statement."""
    if not isinstance(stmt, ast.ClassDef) or stmt.name.startswith("_"):
        return []
    return [node for node in stmt.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")]


def uncalled_public_names(sources: dict[str, str], callers: list[str]) -> list[str]:
    """``module.name`` of each public top-level name, and ``module.Class.name``
    of each public method or property of a public class, of ``sources``
    (module -> source) that nothing but its own definition loads, in
    ``sources`` or ``callers``. A method counts as called when its name is
    loaded as an attribute anywhere else, whatever the object."""
    defined: list[tuple[str, str]] = []  # (qualified name, name)
    used: set[str] = set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = _defined(stmt)
            defined += [(f"{module}.{name}", name) for name in own]
            methods = _public_methods(stmt)
            for method in methods:
                defined.append((f"{module}.{stmt.name}.{method.name}", method.name))
                used |= _loaded(method) - {method.name} - own
            for node in ast.iter_child_nodes(stmt):
                if node not in methods:
                    used |= _loaded(node) - own
    for source in callers:
        used |= _loaded(ast.parse(source))
    return sorted(qualified for qualified, name in defined if name not in used)


def test_every_public_name_has_a_caller():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    callers = [path.read_text(encoding="utf-8") for path in sorted(BENCH.glob("*.py"))]
    assert uncalled_public_names(sources, callers) == []


def test_caller_scan_ignores_a_name_only_its_own_body_loads():
    sources = {
        "m": "import x\n"
        "LIMIT = 3\n"
        "def loop(n):\n    return loop(n - 1) if n else LIMIT\n"
        "def used() -> 'Kept':\n    return 1\n"
        "class Kept:\n"
        "    size: int = 0\n"
        "    @property\n    def total(self):\n        return self.helper()\n"
        "    def helper(self):\n        return self.helper\n"
        "    def unused(self):\n        return self.unused()\n"
        "    def __len__(self):\n        return 0\n"
        "class Self:\n"
        "    @classmethod\n    def make(cls) -> 'Self':\n        return cls()\n"
        "class _Private:\n    def error(self):\n        pass\n"
        "def _private():\n    pass\n",
    }
    callers = ["import m\nm.used().total\nx.make()\n"]
    assert uncalled_public_names(sources, callers) == ["m.Kept.unused", "m.Self", "m.loop"]


def path_placing_calls(source: str) -> list[tuple[int, str]]:
    """``(line, call)`` of each ``mkdir`` or ``os.replace`` call in ``source``."""
    calls = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            if func.attr == "mkdir" or (func.attr == "replace" and isinstance(func.value, ast.Name)
                                        and func.value.id == "os"):
                calls.append((node.lineno, ast.unparse(node)))
    return sorted(calls)


def test_only_errors_places_output_paths():
    # Every artifact, the campaign's manifests included, is placed by errors.publish.
    calls = {path.name: [call for _, call in path_placing_calls(path.read_text(encoding="utf-8"))]
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "errors.py"}
    assert {name: found for name, found in calls.items() if found} == {}


def test_path_scan_finds_mkdir_and_os_replace():
    source = (
        "import os\n"
        "out.parent.mkdir(parents=True)\n"
        "text.replace('a', 'b')\n"
        "os.replace(tmp, out)\n"
    )
    assert path_placing_calls(source) == [(2, "out.parent.mkdir(parents=True)"), (4, "os.replace(tmp, out)")]
