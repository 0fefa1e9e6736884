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


def uncalled_public_names(sources: dict[str, str], callers: list[str]) -> list[str]:
    """``module.name`` of each public top-level name of ``sources`` (module
    -> source) that no top-level statement but its own definition loads,
    in ``sources`` or ``callers``."""
    defined: dict[str, str] = {}
    used: set[str] = set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = _defined(stmt)
            defined.update((name, module) for name in own)
            used |= _loaded(stmt) - own
    for source in callers:
        used |= _loaded(ast.parse(source))
    return sorted(f"{module}.{name}" for name, module in defined.items() if name not in used)


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
        "class Kept:\n    pass\n"
        "def _private():\n    pass\n",
    }
    assert uncalled_public_names(sources, ["import m\nm.used()\n"]) == ["m.loop"]


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
    # Every artifact is placed by errors.publish; a campaign makes its manifests/
    # directory itself, since it writes the manifests during the run.
    calls = {path.name: [call for _, call in path_placing_calls(path.read_text(encoding="utf-8"))]
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "errors.py"}
    assert {name: found for name, found in calls.items() if found} == {
        "proxy.py": ["(out_dir / 'manifests').mkdir(parents=True, exist_ok=True)"]
    }


def test_path_scan_finds_mkdir_and_os_replace():
    source = (
        "import os\n"
        "out.parent.mkdir(parents=True)\n"
        "text.replace('a', 'b')\n"
        "os.replace(tmp, out)\n"
    )
    assert path_placing_calls(source) == [(2, "out.parent.mkdir(parents=True)"), (4, "os.replace(tmp, out)")]
