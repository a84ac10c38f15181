"""Checks on the package source itself, read as syntax trees."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pcs"
# __init__.py imports names to re-export them
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names that source imports at any level and never reads.

    An `import a.b` binds a; a name counts as used wherever it is loaded,
    including as the root of an attribute chain such as np.linalg.norm.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_checker_finds_an_unused_import():
    source = "import operator\nfrom . import solvers, transforms\nimport numpy.linalg as la\nsolvers.x(la)\n"
    assert unused_imports(source) == ["line 1: operator", "line 2: transforms"]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []
