"""Source rules for ``src/tifcsim``, checked on the AST alone.

The library stays pure stdlib: every import is relative or names a
standard-library module. And every name a module imports is used, so code
that a deletion leaves without callers does not keep its imports alive.
``__init__.py`` is exempt from the second rule: its imports are the
package's exports. Every memo is bounded: an ``lru_cache`` names an integer
``maxsize`` and ``functools.cache`` is not used, so a long run or a fuzz
test cannot grow a cache without limit.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tifcsim"
MODULES = sorted(PACKAGE.glob("*.py"))


def foreign_imports(source: str) -> list:
    """Each absolute import of a module outside the standard library."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names
                  if name.split(".")[0] not in sys.stdlib_module_names]
    return found


def _annotation_names(node: ast.AST) -> set:
    """Names inside an annotation, quoted forward references included."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names |= _annotation_names(ast.parse(sub.value, mode="eval"))
    return names


def unused_imports(source: str) -> list:
    """Each name bound by an import that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
    return [f"line {line}: {name}" for line, name in sorted(
        (line, name) for name, line in bound.items() if name not in used)]


def unbounded_caches(source: str) -> list:
    """Each ``functools.cache``, and each ``functools.lru_cache`` whose
    ``maxsize`` is not an integer literal or a module-level name bound to
    one. Importing either by name is flagged too, since only the
    ``functools.`` form is checked."""
    tree = ast.parse(source)
    constants = {target.id for node in tree.body if isinstance(node, ast.Assign)
                 and isinstance(node.value, ast.Constant) and type(node.value.value) is int
                 for target in node.targets if isinstance(target, ast.Name)}

    def is_int(node):
        return ((isinstance(node, ast.Constant) and type(node.value) is int)
                or (isinstance(node, ast.Name) and node.id in constants))

    bounded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            if sizes and all(map(is_int, sizes)):
                bounded.add(id(node.func))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names = [a.name for a in node.names if a.name in ("cache", "lru_cache")]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "functools":
            names = [node.attr] if node.attr == "cache" or (
                node.attr == "lru_cache" and id(node) not in bounded) else []
        else:
            continue
        found += [(node.lineno, name) for name in names]
    return [f"line {line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_cache_is_bounded(path):
    assert unbounded_caches(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_library_imports_only_stdlib(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checkers_flag_planted_faults():
    assert foreign_imports("import hypothesis") == ["line 1: hypothesis"]
    assert foreign_imports("from hypothesis import given") == ["line 1: hypothesis"]
    assert foreign_imports("import json\nfrom . import kernel\n"
                           "from .labels import Label") == []
    planted = ("from __future__ import annotations\n"
               "import csv\n"
               "import os.path\n"
               "from typing import List, Tuple\n"
               "def f(x: 'List[int]') -> None:\n"
               "    return os.path.join(x)\n")
    assert unused_imports(planted) == ["line 2: csv", "line 4: Tuple"]


def test_cache_checker_flags_unbounded_memos():
    planted = ("import functools\n"
               "SIZE = 64\n"
               "NAME = 'x'\n"
               "@functools.lru_cache(maxsize=SIZE)\n"
               "def a(x): pass\n"
               "@functools.lru_cache(32)\n"
               "def b(x): pass\n"
               "@functools.lru_cache(maxsize=None)\n"
               "def c(x): pass\n"
               "@functools.lru_cache\n"
               "def d(x): pass\n"
               "@functools.cache\n"
               "def e(x): pass\n"
               "@functools.lru_cache(maxsize=NAME)\n"
               "def f(x): pass\n")
    assert unbounded_caches(planted) == [
        "line 8: lru_cache", "line 10: lru_cache", "line 12: cache", "line 14: lru_cache"]
    assert unbounded_caches("from functools import cache, lru_cache, wraps\n") == [
        "line 1: cache", "line 1: lru_cache"]
