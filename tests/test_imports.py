"""Every module of the package uses each name it imports (``__init__.py``,
which imports to re-export, excepted)."""

import ast
from pathlib import Path

import fractal_xcorr

PACKAGE = Path(fractal_xcorr.__file__).parent


def unused_imports(source: str) -> list:
    """Names bound by an import statement of source and never read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


def test_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\nx = np.pi * tau\n"
    assert unused_imports(source) == ["line 1: os", "line 3: pi"]


def test_no_module_imports_an_unused_name():
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}
