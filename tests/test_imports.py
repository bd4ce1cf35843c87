"""Every top-level import of a package module is used by that module, every
module-level private name is referenced somewhere in the package, and a
re-import leaves no copy of the package alive.

No linter ships with the test dependencies, so this reads each module's
syntax tree: a name bound by a module-level import must occur as a name
somewhere in the module.  `__init__.py` re-exports by importing, and
`from __future__` imports switch on language features; both are exempt.
A private name (`_x`, not a dunder) bound at module level by a def, class
or assignment must be read, as a name, an attribute or an import, in some
module of the package, and so must a private attribute stored by an
assignment such as `self._x = ...`.  No module-level def or class name is
defined in two modules: one rule is stated once and imported.  Only
`errors.py`, which states the dimension rules, constructs a DimensionError,
and the package raises only the errors `errors.py` defines, but for a few
named on purpose.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import approxsys

MODULES = sorted(p for p in Path(approxsys.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str):
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def unreferenced_private_names(sources):
    """(module, line, name) for each module-level private binding in
    `sources` (module name -> source) that no module reads.  A read inside
    the name's own definition, such as a recursive call, does not count."""
    bound = []
    read = set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            bound += [(module, node.lineno, name) for name in names
                      if name.startswith("_") and not name.startswith("__")]
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                elif isinstance(sub, ast.alias):
                    name = sub.name
                else:
                    continue
                if name not in names:
                    read.add(name)
    return sorted(b for b in bound if b[2] not in read)


def unread_private_attributes(sources):
    """(module, line, name) for each store to a private attribute, as in
    `self._x = ...`, whose name no module in `sources` reads as an
    attribute, a name or a string constant (which covers getattr and
    __slots__)."""
    stored = []
    read = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Store):
                    stored.append((module, node.lineno, node.attr))
                elif isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return sorted(s for s in stored
                  if s[2].startswith("_") and not s[2].startswith("__") and s[2] not in read)


def names_defined_twice(sources):
    """(name, modules) for each module-level def or class name that more
    than one module in `sources` (module name -> source) defines."""
    defined = {}
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, []).append(module)
    return sorted((name, modules) for name, modules in defined.items() if len(modules) > 1)


def dimension_errors_outside_errors(sources):
    """(module, line) for each call of DimensionError, by name or as an
    attribute, in a module of `sources` other than errors.py."""
    return sorted((module, node.lineno) for module, source in sources.items()
                  if module != "errors.py"
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", None)) == "DimensionError")


# raised by name on purpose: the abstract methods, a negative name index,
# the cosine scan's unreachable end, and evaluate's private fragment miss
FOREIGN_RAISES = {"NotImplementedError", "IndexError", "AssertionError", "_FragmentMiss"}


def foreign_raises(sources):
    """(module, line, name) for each `raise X`, `raise X(...)` or
    `raise mod.X(...)` in `sources` whose X is neither a class errors.py
    defines nor in FOREIGN_RAISES.  A bare re-raise names nothing and passes."""
    own = {node.name for node in ast.parse(sources["errors.py"]).body
           if isinstance(node, ast.ClassDef)}
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = getattr(exc, "id", getattr(exc, "attr", None))
                if name not in own | FOREIGN_RAISES:
                    found.append((module, node.lineno, name))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "from typing import List, Tuple\n"
              "x: List[int] = []\n")
    assert unused_imports(source) == [(2, "math"), (3, "Tuple")]


def test_package_reads_every_private_name():
    package = Path(approxsys.__file__).parent
    sources = {p.name: p.read_text() for p in sorted(package.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


def test_package_reads_every_private_attribute():
    package = Path(approxsys.__file__).parent
    sources = {p.name: p.read_text() for p in sorted(package.glob("*.py"))}
    assert unread_private_attributes(sources) == []


def test_package_defines_each_name_once():
    package = Path(approxsys.__file__).parent
    sources = {p.name: p.read_text() for p in sorted(package.glob("*.py"))}
    assert names_defined_twice(sources) == []


def test_tests_define_each_name_once():
    # a test defined in two files runs twice under two ids
    tests = Path(__file__).parent
    sources = {p.name: p.read_text() for p in sorted(tests.glob("*.py"))}
    assert names_defined_twice(sources) == []


def test_package_raises_dimension_errors_through_the_rules():
    package = Path(approxsys.__file__).parent
    sources = {p.name: p.read_text() for p in sorted(package.glob("*.py"))}
    assert dimension_errors_outside_errors(sources) == []


def test_dimension_error_outside_errors_is_reported():
    sources = {
        "errors.py": ("class DimensionError(Exception):\n"
                      "    pass\n"
                      "def same_dim(d, e):\n"
                      "    if d != e:\n"
                      "        raise DimensionError(d)\n"),
        "a.py": ("from .errors import DimensionError, same_dim\n"
                 "def check(p):\n"
                 "    same_dim(len(p), 2)\n"
                 "    if not p:\n"
                 "        raise DimensionError('empty')\n"
                 "    except_these = (DimensionError, ValueError)\n"),
        "b.py": ("from . import errors\n"
                 "errors.DimensionError('x')\n"),
    }
    assert dimension_errors_outside_errors(sources) == [("a.py", 5), ("b.py", 2)]


def test_package_raises_only_its_own_errors():
    package = Path(approxsys.__file__).parent
    sources = {p.name: p.read_text() for p in sorted(package.glob("*.py"))}
    assert foreign_raises(sources) == []


def test_foreign_raise_is_reported():
    sources = {
        "errors.py": ("class ApproxSysError(Exception):\n"
                      "    pass\n"
                      "class FormatError(ApproxSysError):\n"
                      "    pass\n"),
        "a.py": ("from . import errors\n"
                 "from .errors import FormatError\n"
                 "class _Usage(Exception):\n"
                 "    pass\n"
                 "def f(x):\n"
                 "    try:\n"
                 "        raise FormatError(x)\n"
                 "    except FormatError:\n"
                 "        raise\n"
                 "    raise errors.ApproxSysError(x) from None\n"
                 "    raise _Usage(x)\n"
                 "    raise ValueError\n"
                 "    raise NotImplementedError\n"),
    }
    assert foreign_raises(sources) == [("a.py", 11, "_Usage"), ("a.py", 12, "ValueError")]


def test_name_defined_twice_is_reported():
    sources = {
        "a.py": ("def _check(x):\n"
                 "    return x\n"
                 "class Box:\n"
                 "    def _check(self):\n"
                 "        pass\n"
                 "def once():\n"
                 "    pass\n"),
        "b.py": ("from .a import once\n"
                 "_check = None\n"
                 "def _check(y):\n"
                 "    def Box():\n"
                 "        pass\n"
                 "    return y\n"
                 "class Box:\n"
                 "    pass\n"),
    }
    assert names_defined_twice(sources) == [("Box", ["a.py", "b.py"]),
                                            ("_check", ["a.py", "b.py"])]


def test_unreferenced_private_name_is_reported():
    sources = {
        "a.py": ("_used = 1\n"
                 "_dead: int = 2\n"
                 "def _helper():\n"
                 "    return _used\n"
                 "class _Spare:\n"
                 "    pass\n"
                 "_imported = _attr = 3\n"
                 "__all__ = []\n"
                 "def _rec(x):\n"
                 "    return _rec(x - 1) if x else 0\n"),
        "b.py": ("from .a import _helper, _imported\n"
                 "import a\n"
                 "a._attr\n"),
    }
    assert unreferenced_private_names(sources) == [
        ("a.py", 2, "_dead"), ("a.py", 5, "_Spare"), ("a.py", 9, "_rec")]


def test_unread_private_attribute_is_reported():
    sources = {
        "a.py": ("class C:\n"
                 "    __slots__ = ('_slot',)\n"
                 "    def __init__(self):\n"
                 "        self._read = self._slot = self._got = 1\n"
                 "        self._dead = 2\n"
                 "        self._pair, self._half = 3, 4\n"
                 "        self.__dunder__ = self.public = 5\n"
                 "        self._named = 6\n"
                 "    def f(self):\n"
                 "        self._dead += 1\n"
                 "        return self._read, getattr(self, '_got')\n"),
        "b.py": ("def g(c):\n"
                 "    return c._pair, _named\n"),
    }
    assert unread_private_attributes(sources) == [
        ("a.py", 5, "_dead"), ("a.py", 6, "_half"), ("a.py", 10, "_dead")]


def test_reimport_keeps_one_copy_of_each_module():
    # typing caches a subscripted alias such as Union[Atom, ...] together
    # with its arguments, so an alias over a module's own classes keeps
    # every imported copy of that module alive.
    script = textwrap.dedent("""
        import gc, importlib, sys
        for _ in range(2):
            for name in [m for m in sys.modules if m.split(".")[0] == "approxsys"]:
                del sys.modules[name]
            importlib.import_module("approxsys")
        gc.collect()
        names = sorted(m for m in sys.modules if m.startswith("approxsys."))
        for name in names:
            copies = sum(isinstance(o, dict) and o.get("__name__") == name
                         for o in gc.get_objects())
            print(name, copies)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(approxsys.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    copies = dict(line.split() for line in out.splitlines())
    assert copies["approxsys.systems"] == "1"
    assert set(copies.values()) == {"1"}, copies
