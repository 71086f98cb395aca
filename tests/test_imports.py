"""Every module of the package uses each name it imports (``__init__.py``,
which imports to re-export, excepted), and every name a module defines is
read somewhere in the package, its tests or its benchmark."""

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


def defined_names(source: str) -> dict:
    """Module-level functions, classes and constants of source: {name: line}."""
    names = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update((t.id, node.lineno) for t in targets if isinstance(t, ast.Name))
    return names


def read_names(source: str) -> set:
    """Every name source reads: loaded names, attributes, imported names and
    string constants (the benchmark tracer hooks functions by name)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def dead_names(modules: dict, readers: list) -> list:
    """Names defined in modules ({file name: source}) that no source of
    readers reads, in source order; a definition does not read itself."""
    read = set().union(*map(read_names, readers))
    return [f"{file}:{line}: {name}" for file, source in modules.items()
            for name, line in defined_names(source).items() if name not in read]


def test_finds_a_dead_name():
    module = ("import math\nLIMIT = 3\nUNUSED: int = 4\n\n"
              "def used(x):\n    return math.floor(x) + LIMIT\n\n"
              "def unused():\n    return used(1)\n\nclass Dead:\n    pass\n")
    caller = "from m import used\nprint(used(2))\n"
    assert dead_names({"m.py": module}, [module, caller]) == [
        "m.py:3: UNUSED", "m.py:8: unused", "m.py:11: Dead"]


def test_every_module_level_name_is_read():
    root = PACKAGE.parents[1]
    sources = [p.read_text() for d in ("src", "tests", "perfbench")
               for p in (root / d).rglob("*.py")]
    modules = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert dead_names(modules, sources) == []
