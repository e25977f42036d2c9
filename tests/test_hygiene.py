"""Source hygiene of the package: no unused imports, no dangling exports."""

from __future__ import annotations

import ast
from pathlib import Path

import mixedhess

PACKAGE = Path(mixedhess.__file__).resolve().parent


def _unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads.

    A name counts as read when it appears as an expression name, which
    includes the base of an attribute access and, under postponed
    evaluation, annotations (they are still parsed).
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_modules_have_no_unused_imports():
    unused = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        and (names := _unused_imports(path.read_text()))
    }
    assert unused == {}


def test_unused_import_detector_flags_a_dead_import():
    source = "from fractions import Fraction\nimport math\nx = math.pi\n"
    assert _unused_imports(source) == ["Fraction (line 1)"]


def test_every_exported_name_is_importable():
    missing = [name for name in mixedhess.__all__ if not hasattr(mixedhess, name)]
    assert missing == []
    assert len(set(mixedhess.__all__)) == len(mixedhess.__all__)
