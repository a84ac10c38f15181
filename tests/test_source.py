"""Checks on the package source itself, read as syntax trees."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pcs"
PACKAGE = sorted(SRC.glob("*.py"))
# __init__.py imports names to re-export them
MODULES = [path for path in PACKAGE if path.name != "__init__.py"]


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


def environment_reads(source: str) -> list[str]:
    """Where source reads the process environment: os.environ, os.getenv
    and their bytes forms, reached through any name bound to os or imported
    from it."""
    reads = {"environ", "environb", "getenv", "getenvb"}
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, f"os.{alias.name}") for alias in node.names if alias.name in reads]
    os_names = {alias.asname or "os" for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names if alias.name == "os"}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in reads
                and isinstance(node.value, ast.Name) and node.value.id in os_names):
            found.append((node.lineno, f"os.{node.attr}"))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_checker_finds_an_environment_read():
    source = ("import os\nimport os as system\nfrom os import getenv, path\n"
              "a = os.environ.get('A')\nb = system.getenv('B')\nc = os.path.join('x')\n")
    assert environment_reads(source) == ["line 3: os.getenv", "line 4: os.environ", "line 5: os.getenv"]


@pytest.mark.parametrize("path", PACKAGE, ids=[path.name for path in PACKAGE])
def test_module_reads_no_environment(path):
    # tuning values such as the solver's block size are module constants,
    # never switches hidden in the environment
    assert environment_reads(path.read_text()) == []


def test_checker_finds_an_unused_import():
    source = "import operator\nfrom . import solvers, transforms\nimport numpy.linalg as la\nsolvers.x(la)\n"
    assert unused_imports(source) == ["line 1: operator", "line 2: transforms"]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []
