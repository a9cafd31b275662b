"""Source rules for ``src/tifcsim``, checked on the AST alone.

The library stays pure stdlib: every import is relative or names a
standard-library module. And every name a module imports is used, so code
that a deletion leaves without callers does not keep its imports alive.
``__init__.py`` is exempt from the second rule: its imports are the
package's exports. Every memo is bounded: an ``lru_cache`` names an integer
``maxsize`` and ``functools.cache`` is not used, so a long run or a fuzz
test cannot grow a cache without limit. And there is no ``assert``
statement: ``python -O`` strips them, so an invariant raises ``ConfigError``
or ``SimError`` instead. No regex literal uses ``\\d``, ``\\w``, ``\\s`` or
``\\b`` without ``re.ASCII``: on a ``str`` pattern each of them also matches
non-ASCII text (``\\d`` matches ``\u0661``), so a parser would accept input
its writer never produces. Outside ``monitor.py``, every ``.emit(...)``
call names its kind as a literal ``TraceKind.<member>`` other than
``MSG_RECV`` and ``MONITOR_DENY``: the monitor writes the delivery it
allows, or the denial with its residual, so nothing is delivered that it
did not allow. Every ``TraceKind`` member is the literal kind of some
``.emit(...)`` call, so no record kind outlives the code that wrote it.
No class other than ``Clock`` calls ``.schedule(...)``: every
engine event is an arrival, which ``scenarios.wire`` schedules, or a clock
tick, so a delivery runs inside the tick that releases it and whether a
group sleeps is decided in one place.
``ReservationScheduler.decide`` reads only ``sim.now``, ``self.rotation``
and the builtin ``len``: the user it names is a function of the time, so
the reservation scheduler stays blind to demand however seldom it ticks.
"""

import ast
import re
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


def bare_asserts(source: str) -> list:
    """Each ``assert`` statement."""
    return [f"line {node.lineno}: assert" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


# The ``re`` functions whose first argument is a pattern.
RE_FUNCTIONS = {"compile", "search", "match", "fullmatch", "split", "findall",
                "finditer", "sub", "subn"}


def unicode_regex_classes(source: str) -> list:
    """Each ``\\d``, ``\\w``, ``\\s`` or ``\\b`` in a literal pattern of an
    ``re`` call that is not passed ``re.ASCII`` (or ``re.A``)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "re"
                and node.func.attr in RE_FUNCTIONS and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            continue
        rest = [*node.args[1:], *(k.value for k in node.keywords)]
        if any(isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
               and sub.value.id == "re" and sub.attr in ("ASCII", "A")
               for arg in rest for sub in ast.walk(arg)):
            continue
        # Each escape is a backslash and the character after it, so an
        # escaped backslash followed by "d" is no class.
        escapes = re.findall(r"\\(.)", node.args[0].value, re.DOTALL)
        found |= {(node.lineno, c) for c in escapes if c in "dwsb"}
    return [f"line {line}: \\{c}" for line, c in sorted(found)]


# The kinds only the monitor may record: a delivery is its allow.
MONITOR_KINDS = {"MSG_RECV", "MONITOR_DENY"}


def emit_calls(source: str) -> list:
    """The line of each ``.emit(...)`` call and the name of its kind's
    member, or None where the kind is not a literal ``TraceKind.<member>``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "emit"):
            continue
        kind = node.args[0] if node.args else None
        literal = (isinstance(kind, ast.Attribute) and isinstance(kind.value, ast.Name)
                   and kind.value.id == "TraceKind")
        found.append((node.lineno, kind.attr if literal else None))
    return found


def unmediated_emits(source: str) -> list:
    """Each ``.emit(...)`` call whose kind is not a literal
    ``TraceKind.<member>``, or is one of ``MONITOR_KINDS``."""
    return [f"line {line}: kind is not a TraceKind literal" if kind is None
            else f"line {line}: TraceKind.{kind}"
            for line, kind in emit_calls(source) if kind is None or kind in MONITOR_KINDS]


def unemitted_kinds(kernel: str, sources: list) -> list:
    """Each member of class ``TraceKind`` in ``kernel`` that no ``.emit(...)``
    call in ``sources`` names as its literal kind."""
    emitted = {kind for source in sources for _, kind in emit_calls(source)}
    return [f"TraceKind.{target.id}" for cls in ast.walk(ast.parse(kernel))
            if isinstance(cls, ast.ClassDef) and cls.name == "TraceKind"
            for node in cls.body if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and target.id not in emitted]


def non_clock_schedules(source: str) -> list:
    """Each ``.schedule(...)`` call outside class ``Clock`` whose handler
    is not an ``.ingress``, named by its top-level class or function: only
    a clock arms a tick, and everything else schedules job arrivals."""
    found = []
    for top in ast.parse(source).body:
        if isinstance(top, ast.ClassDef) and top.name == "Clock":
            continue
        for node in ast.walk(top):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "schedule"):
                continue
            handler = node.args[1] if len(node.args) > 1 else None
            if not (isinstance(handler, ast.Attribute) and handler.attr == "ingress"):
                found.append((node.lineno, getattr(top, "name", "<module>")))
    return [f"line {line}: {name}" for line, name in sorted(found)]


# What the reservation rotation may read: the time and the rotation.
ROTATION_READS = {"sim.now", "self.rotation", "len"}


def rotation_reads(source: str) -> list:
    """Each name or attribute chain in the body of
    ``ReservationScheduler.decide`` other than ``ROTATION_READS``, or the
    method's absence."""
    methods = [method for cls in ast.walk(ast.parse(source))
               if isinstance(cls, ast.ClassDef) and cls.name == "ReservationScheduler"
               for method in cls.body
               if isinstance(method, ast.FunctionDef) and method.name == "decide"]
    if not methods:
        return ["no ReservationScheduler.decide"]
    nodes = [node for stmt in methods[0].body for node in ast.walk(stmt)]
    inner = {id(node.value) for node in nodes if isinstance(node, ast.Attribute)}
    found = set()
    for node in nodes:
        if id(node) in inner or not isinstance(node, (ast.Name, ast.Attribute)):
            continue
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        chain.append(node.id if isinstance(node, ast.Name) else "?")
        name = ".".join(reversed(chain))
        if name not in ROTATION_READS:
            found.add((node.lineno, name))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_reservation_rotation_reads_only_the_time():
    assert rotation_reads((PACKAGE / "entities.py").read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_a_clock_rearms_a_tick(path):
    assert non_clock_schedules(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "monitor.py"],
                         ids=lambda p: p.name)
def test_only_the_monitor_records_decisions_and_deliveries(path):
    assert unmediated_emits(path.read_text(encoding="utf-8")) == []


def test_every_trace_kind_is_emitted():
    sources = [path.read_text(encoding="utf-8") for path in MODULES]
    assert unemitted_kinds((PACKAGE / "kernel.py").read_text(encoding="utf-8"), sources) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unicode_regex_class(path):
    assert unicode_regex_classes(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_bare_assert(path):
    assert bare_asserts(path.read_text(encoding="utf-8")) == []


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


def test_assert_checker_flags_planted_assert():
    planted = ("def f(x):\n"
               "    if x is None:\n"
               "        raise ValueError('x')\n"
               "    assert x > 0, 'positive'\n"
               "    return 'assert'\n")
    assert bare_asserts(planted) == ["line 4: assert"]


def test_regex_checker_flags_unicode_classes():
    planted = ("import re\n"
               "A = re.compile(r'[0-9]+[A-Za-z_]')\n"
               "B = re.compile(r'(\\d+)/(\\d+)')\n"
               "C = re.fullmatch(r'\\w+\\s\\b', x)\n"
               "D = re.compile(r'\\d\\b', re.ASCII)\n"
               "E = re.search(r'\\\\d', x)\n"
               "F = re.sub(r'\\s', ' ', x, flags=re.A | re.I)\n"
               "G = re.split(r'\\s', x, flags=re.I)\n"
               "H = TAG.match(r'\\d')\n")
    assert unicode_regex_classes(planted) == [
        "line 3: \\d", "line 4: \\b", "line 4: \\s", "line 4: \\w", "line 8: \\s"]


def test_emit_checker_flags_unmediated_records():
    planted = ("def f(sim, kind):\n"
               "    sim.emit(TraceKind.SLICE_START, 'core')\n"
               "    sim.emit(TraceKind.MSG_RECV, 'gw_A', msg='m')\n"
               "    sim.emit(kind, 'gw_A')\n"
               "    emit(TraceKind.MONITOR_DENY, 'x')\n")
    assert unmediated_emits(planted) == [
        "line 3: TraceKind.MSG_RECV", "line 4: kind is not a TraceKind literal"]


def test_kind_checker_flags_a_kind_nothing_emits():
    kernel = ("class TraceKind(str, Enum):\n"
              "    MSG_SEND = 'MsgSend'\n"
              "    MSG_RECV = 'MsgRecv'\n"
              "    MONITOR_ALLOW = 'MonitorAllow'\n"
              "    MONITOR_DENY = 'MonitorDeny'\n"
              "class Other(Enum):\n"
              "    UNUSED = 'x'\n")
    sources = ["def send(sim):\n"
               "    sim.emit(TraceKind.MSG_SEND, 'core')\n",
               "def decide(sim, kind, allowed):\n"
               "    sim.emit(TraceKind.MSG_RECV if allowed else TraceKind.MONITOR_DENY, 'gw_A')\n"
               "    sim.emit(kind, 'gw_A')\n"
               "    emit(TraceKind.MONITOR_ALLOW, 'x')\n"
               "    sim.emit(TraceKind.MONITOR_DENY, 'gw_A')\n"]
    assert unemitted_kinds(kernel, sources) == ["TraceKind.MSG_RECV", "TraceKind.MONITOR_ALLOW"]


def test_rearm_checker_flags_a_member_scheduling_its_own_tick():
    planted = ("class Clock(Entity):\n"
               "    def handle(self, sim):\n"
               "        sim.schedule(sim.now + 1, self.handle)\n"
               "class Sleeper(Entity):\n"
               "    def rest(self, sim, busy):\n"
               "        if busy:\n"
               "            sim.schedule(sim.now + 1, self.handle, *self.tick_args)\n"
               "class Pacer(Entity):\n"
               "    def handle(self, sim):\n"
               "        sim.schedule(sim.now, self.downstream.handle, 'm')\n"
               "def wire(engine, clock, gateway, spec):\n"
               "    engine.schedule(0, clock.handle)\n"
               "    engine.schedule(spec.arrival, gateway.ingress, spec, 'A0')\n")
    assert non_clock_schedules(planted) == [
        "line 7: Sleeper", "line 10: Pacer", "line 12: wire"]


def test_rotation_checker_flags_a_scheduler_that_reads_demand():
    planted = ("class DemandScheduler(Scheduler):\n"
               "    def decide(self, sim):\n"
               "        return next(u for u in self.order if self.core.slots[u])\n"
               "class ReservationScheduler(Scheduler):\n"
               "    def decide(self, sim: Engine) -> Optional[str]:\n"
               "        if self.core.slots[self.rotation[0]]:\n"
               "            return self.rotation[0]\n"
               "        user = self.rotation[sim.now % len(self.rotation)]\n"
               "        return user if sim.trace else offer(sim)[0].user\n")
    assert rotation_reads(planted) == [
        "line 6: self.core.slots", "line 8: user", "line 9: ?.user", "line 9: offer",
        "line 9: sim", "line 9: sim.trace", "line 9: user"]
    assert rotation_reads("class ReservationScheduler(Scheduler):\n"
                          "    def handle(self, sim):\n"
                          "        return self.rotation[sim.now]\n") == [
        "no ReservationScheduler.decide"]
