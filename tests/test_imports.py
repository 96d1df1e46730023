"""Every name a cohint module imports is used in that module.  The package's
__init__.py, which imports only to re-export, is left out, as is
``from __future__ import annotations``.  Every module-level function is
referenced somewhere in the package outside its own body and outside
__init__.py, so a re-export alone does not keep a function, and every method
of a class is read as an attribute somewhere outside its own body."""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cohint"
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_sources_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "from dataclasses import dataclass, field\n\n@dataclass\nclass A:\n    x: int\n"
    assert unused_imports(source) == ["line 1: field"]


def unreferenced_functions(sources: dict[str, str]) -> list[str]:
    """The module-level functions of the sources, as module.name, that no
    other top-level statement of any source reads by name or attribute."""
    refs = []  # (module, top-level statement, the names it reads)
    for module, source in sources.items():
        for node in ast.parse(source).body:
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            refs.append((module, node, names))
    return [
        f"{module}.{node.name}" for module, node, _ in refs
        if isinstance(node, ast.FunctionDef)
        and not any(node.name in names for _, other, names in refs if other is not node)
    ]


def unread_methods(sources: dict[str, str]) -> list[str]:
    """The methods of the sources' classes, as module.Class.name, whose name
    no attribute read outside the method's own body carries.  Dunders are
    called by the interpreter, not read by name."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = Counter(n.attr for tree in trees.values() for n in ast.walk(tree)
                    if isinstance(n, ast.Attribute))
    unread = []
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef) and not node.name.startswith("__")
                        and f"{module}.{cls.name}.{node.name}" not in CALLED_BY_THE_LIBRARY):
                    own = sum(1 for n in ast.walk(node)
                              if isinstance(n, ast.Attribute) and n.attr == node.name)
                    if reads[node.name] == own:
                        unread.append(f"{module}.{cls.name}.{node.name}")
    return unread


# argparse calls ArgumentParser.error itself; the override makes a usage
# error a validation failure.
CALLED_BY_THE_LIBRARY = {"cli._Parser.error"}


def test_every_function_is_referenced():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert unreferenced_functions(sources) == []
    assert unread_methods(sources) == []


def test_an_unreferenced_function_is_found():
    sources = {
        "a": "def used():\n    return 1\n\n\ndef recursive(n):\n    return recursive(n - 1)\n",
        "b": "from .a import used\n\n\ndef caller():\n    return used()\n\n\nMAIN = caller\n",
    }
    assert unreferenced_functions(sources) == ["a.recursive"]


def test_a_re_exported_function_needs_a_reader():
    # an import binds a name without reading it, so a re-export alone, as
    # __init__.py makes, does not count
    sources = {
        "__init__": "from .a import exported\n",
        "a": "def used():\n    return 1\n\n\ndef exported():\n    return used()\n",
    }
    assert unreferenced_functions(sources) == ["a.exported"]


def test_an_unread_method_is_found():
    sources = {
        "a": ("class A:\n    def __len__(self):\n        return self.size()\n\n"
              "    def size(self):\n        return 0\n\n"
              "    def again(self):\n        return self.again()\n"),
        "b": "def f(a):\n    return a.size()\n",
    }
    assert unread_methods(sources) == ["a.A.again"]
