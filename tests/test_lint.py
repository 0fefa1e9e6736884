"""No module of the package imports a name it never uses.

An ``ast`` scan, since no linter is a dependency. A name counts as used
if it is loaded anywhere in the module, or named in a string that parses
as an expression (a quoted annotation, an ``__all__`` entry). An import
whose line carries ``# noqa: F401`` is kept on purpose and is skipped.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qselect"


def _names_in(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


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
            try:
                used |= _names_in(ast.parse(node.value.strip(), mode="eval"))
            except SyntaxError:
                pass
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_finds_an_unused_import():
    source = (
        "from dataclasses import dataclass, field\n"
        "import numpy as np\n"
        "from .x import kept  # noqa: F401\n"
        "X: 'np.ndarray'\n"
        "@dataclass\nclass A:\n    pass\n"
    )
    assert unused_imports(source) == [(1, "field")]
