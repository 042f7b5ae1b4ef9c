"""Source hygiene of the package: every module imports only what it uses,
every function it defines is used somewhere, every public function and
class is run by the package or the benchmark, not only by tests, and the
runtime imports nothing outside the standard library.

The import check covers the package and the test modules.  It skips
`__init__.py`, because its imports are the public re-exports, and `from
__future__` imports, which are compiler directives, not names.  A function or method counts as used when its name is read
anywhere in src/, tests/ or bench/; dunder methods are called by Python
itself and are exempt.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "upfam"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted((ROOT / "tests").glob("*.py"))
SCANNED = sorted(p for d in ("src", "tests", "bench")
                 for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            used.add(node.value)  # quoted annotations and __all__ entries
    return ["%s (line %d)" % (name, line)
            for name, line in sorted(imported.items()) if name not in used]


def test_detects_an_unused_import():
    src = ("from __future__ import annotations\n"
           "import os\nfrom x import a, b\nb()\n")
    assert unused_imports(src) == ["a (line 3)", "os (line 2)"]
    assert unused_imports("from typing import Optional\n"
                          "def f() -> 'Optional': pass\n") == []


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def defined_functions(source: str) -> dict[str, int]:
    """Name and line of every function and method, dunders left out."""
    return {node.name: node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def names_read(source: str) -> set[str]:
    """Names, attributes, imported names and identifier-like strings."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            names.add(node.value)
    return names


def test_detects_an_unused_function():
    src = ("class C:\n    def __eq__(self, o): pass\n"
           "    def m(self): pass\n"
           "def f(): pass\ndef g(): return f() + C().n\n")
    assert defined_functions(src) == {"m": 3, "f": 4, "g": 5}
    assert {"f", "n"} <= names_read(src)
    assert not {"g", "m"} & names_read(src)


def test_no_unused_functions():
    read = set().union(*(names_read(p.read_text(encoding="utf-8"))
                         for p in SCANNED))
    unused = ["%s (%s line %d)" % (name, path.name, line)
              for path in sorted(SRC.glob("*.py"))
              for name, line in defined_functions(
                  path.read_text(encoding="utf-8")).items()
              if name not in read]
    assert unused == []


# Public names that nothing in src/ or bench/ runs, kept on purpose: the
# paper's two hardness reductions, which acceptance test 5 builds and checks
# against DFA intersection emptiness.
LIBRARY_ONLY = {"gen_intersection_fdfa", "gen_ter_hardness"}


def public_definitions(source: str) -> dict[str, int]:
    """Name and line of every public module-level function and class."""
    return {node.name: node.lineno for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not node.name.startswith("_")}


def test_detects_a_public_definition():
    src = ("class C:\n    def m(self): pass\n"
           "def f(): pass\ndef _g(): pass\n")
    assert public_definitions(src) == {"C": 1, "f": 3}


def test_package_runs_every_public_definition():
    """A public function or class of the package is read by the package
    itself or by the benchmark; a name only tests read belongs in tests/.
    The re-exports of __init__.py do not count as reads, and the oracle
    module, which the checkers never call, is not checked."""
    read = set().union(*(names_read(p.read_text(encoding="utf-8"))
                         for d in ("src", "bench")
                         for p in (ROOT / d).rglob("*.py")
                         if p.name != "__init__.py"))
    unused = ["%s (%s line %d)" % (name, path.name, line)
              for path in MODULES if path.name != "oracle.py"
              for name, line in public_definitions(
                  path.read_text(encoding="utf-8")).items()
              if name not in read | LIBRARY_ONLY]
    assert unused == []


def non_stdlib_imports(source: str) -> list[str]:
    """Modules imported from outside the standard library.  Relative imports stay inside the package; `__future__` is a compiler
    directive, and is listed in sys.stdlib_module_names as well."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.append(node.module)
    return [name for name in out
            if name.split(".")[0] not in sys.stdlib_module_names]


def test_detects_a_non_stdlib_import():
    src = ("from __future__ import annotations\nimport os, numpy as np\n"
           "from . import faf\nfrom .words import root\n"
           "from hypothesis.strategies import text\nimport os.path\n")
    assert non_stdlib_imports(src) == ["numpy", "hypothesis.strategies"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_runtime_imports_only_the_standard_library(path):
    assert non_stdlib_imports(path.read_text(encoding="utf-8")) == []
