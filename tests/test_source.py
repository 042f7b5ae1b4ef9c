"""Source hygiene of the package: every module imports only what it uses,
every function it defines is used somewhere, every public function and
class is run by the package or the benchmark, not only by tests, every
method of a package class, and every attribute one stores, is read as an
attribute by the package or the benchmark, every defaulted parameter is
passed by some call, and the runtime imports nothing outside the standard
library.

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


def class_methods(source: str) -> dict[str, int]:
    """Name and line of every method of the module's classes, dunders left
    out."""
    return {item.name: item.lineno for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef) for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (item.name.startswith("__") and item.name.endswith("__"))}


def attributes_read(source: str) -> set[str]:
    """The names read as an attribute, `obj.name`; a store, `obj.name = v`
    or `obj.name += v`, is not a read."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def test_detects_an_unread_method():
    src = ("class C:\n    def __eq__(self, o): pass\n"
           "    def m(self): pass\n    def n(self): return self.k()\n"
           "    def k(self): pass\n"
           "def m(): pass\nm(); C.n\n")
    assert class_methods(src) == {"m": 3, "n": 4, "k": 5}
    assert attributes_read(src) == {"k", "n"}


def class_attributes(source: str) -> dict[str, int]:
    """Name and line of every attribute the module's classes store: a field
    annotated in the class body, as a dataclass declares it, or a store
    `self.name = ...` in a method."""
    out = {}
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if (isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)):
                out.setdefault(item.target.id, item.lineno)
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Attribute)
                    and isinstance(sub.ctx, ast.Store)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"):
                out.setdefault(sub.attr, sub.lineno)
    return out


def test_detects_an_unread_attribute():
    src = ("@dataclass\nclass P:\n    a: int\n    b: int = 0\n"
           "class C:\n    k = 1\n"
           "    def __init__(self):\n        self.c, self.d = 1, 2\n"
           "        self.e = 0\n        self.e += 1\n        o.f = 3\n"
           "def g(p, c): return p.a + c.d + self.c\n")
    assert class_attributes(src) == {"a": 3, "b": 4, "c": 8, "d": 8,
                                     "e": 9}
    assert class_attributes(src).keys() - attributes_read(src) == {"b", "e"}


def test_package_reads_every_method():
    """A method of a package class is read as an attribute, `obj.name`, by
    the package or the benchmark.  A plain name does not count: a local
    variable or a function of the same name says nothing about the
    method."""
    read = set().union(*(attributes_read(p.read_text(encoding="utf-8"))
                         for d in ("src", "bench")
                         for p in (ROOT / d).rglob("*.py")))
    unread = ["%s (%s line %d)" % (name, path.name, line)
              for path in MODULES
              for name, line in class_methods(
                  path.read_text(encoding="utf-8")).items()
              if name not in read]
    assert unread == []


def test_package_reads_every_attribute():
    """An attribute a package class stores is read as `obj.name` by the
    package or the benchmark; a field that is only written, or read only by
    tests, is state nobody needs."""
    read = set().union(*(attributes_read(p.read_text(encoding="utf-8"))
                         for d in ("src", "bench")
                         for p in (ROOT / d).rglob("*.py")))
    unread = ["%s (%s line %d)" % (name, path.name, line)
              for path in MODULES
              for name, line in class_attributes(
                  path.read_text(encoding="utf-8")).items()
              if name not in read]
    assert unread == []


def defaulted_parameters(source: str) -> list[tuple[str, str, object, int]]:
    """(function, parameter, position, line) of every parameter with a
    default, over the module's functions and the methods of its classes;
    dunders and functions nested in functions are left out.  The position
    is the index of the positional argument that fills the parameter, not
    counting a method's self or cls, and None for a keyword-only one."""
    out = []

    def visit(body, in_class):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, True)
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not (node.name.startswith("__")
                           and node.name.endswith("__"))):
                a = node.args
                bound = in_class and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in node.decorator_list)
                params = (a.posonlyargs + a.args)[bound:]
                for k, arg in enumerate(params):
                    if k >= len(params) - len(a.defaults):
                        out.append((node.name, arg.arg, k, node.lineno))
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        out.append((node.name, arg.arg, None, node.lineno))

    visit(ast.parse(source).body, False)
    return out


def call_arguments(sources):
    """(most positional arguments, keywords) passed to each called name
    over the sources, by a call of `name(...)` or `obj.name(...)`.  A `*`
    argument counts as any number of positional arguments, and `**` as
    every keyword, which is written as the keyword None."""
    most, keywords = {}, set()
    for node in (node for source in sources
                 for node in ast.walk(ast.parse(source))):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = (f.id if isinstance(f, ast.Name)
                else f.attr if isinstance(f, ast.Attribute) else None)
        if name is None:
            continue
        count = (float("inf") if any(isinstance(a, ast.Starred)
                                     for a in node.args) else len(node.args))
        most[name] = max(most.get(name, 0), count)
        keywords.update((name, kw.arg) for kw in node.keywords)
    return most, keywords


def unpassed_parameters(calls, source: str) -> list[str]:
    """Defaulted parameters of the source that none of the calls, as
    `call_arguments` gives them, passes; as "function(parameter) line N"."""
    most, keywords = calls
    return ["%s(%s) line %d" % (fn, param, line)
            for fn, param, pos, line in defaulted_parameters(source)
            if not ((pos is not None and most.get(fn, 0) > pos)
                    or (fn, param) in keywords or (fn, None) in keywords)]


def test_detects_an_unpassed_parameter():
    src = ("class C:\n"
           "    def m(self, a, b=1, *, c=2): pass\n"
           "    @staticmethod\n"
           "    def s(a=1): pass\n"
           "    def __eq__(self, o=None): pass\n"
           "def f(x, y=0, z=0):\n"
           "    def inner(k=k): pass\n"
           "def g(p=0, *, q=0): pass\n"
           "f(1, 2)\nC().m(0, c=3)\nC.s(*args)\ng(**kw)\n")
    assert [p[:3] for p in defaulted_parameters(src)] == [
        ("m", "b", 1), ("m", "c", None), ("s", "a", 0),
        ("f", "y", 1), ("f", "z", 2), ("g", "p", 0), ("g", "q", None)]
    assert unpassed_parameters(call_arguments([src]), src) == [
        "m(b) line 2", "f(z) line 6"]


def test_every_defaulted_parameter_is_passed():
    """A default that no call in src/, tests/ or bench/ overrides is a
    parameter nobody needs."""
    calls = call_arguments(p.read_text(encoding="utf-8") for p in SCANNED)
    unpassed = ["%s: %s" % (path.name, entry)
                for path in sorted(SRC.glob("*.py"))
                for entry in unpassed_parameters(
                    calls, path.read_text(encoding="utf-8"))]
    assert unpassed == []


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
