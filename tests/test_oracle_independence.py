"""The oracles in ``reference.py`` must not lean on the algebra they check.

If the reference model called ``flows_to``, ``uncovered`` or the monitor,
monitor-oracle agreement would hold by construction and prove nothing.
"""

import ast
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.py")
ALGEBRA = {"flows_to", "declassify", "uncovered", "join", "pace_down", "lift_to_timing"}


def algebra_uses(source: str) -> list:
    """Each use of a library algebra operation or of ``tifcsim.monitor``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ALGEBRA:
            found.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, ast.Name) and node.id in ALGEBRA:
            found.append(f"line {node.lineno}: {node.id}")
        elif isinstance(node, ast.Constant) and node.value in ALGEBRA:
            found.append(f"line {node.lineno}: {node.value!r}")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "tifcsim.monitor" or (
                    node.module == "tifcsim" and any(a.name == "monitor" for a in node.names)):
                found.append(f"line {node.lineno}: from {node.module} import")
            found += [f"line {node.lineno}: import {a.name}"
                      for a in node.names if a.name in ALGEBRA]
        elif isinstance(node, ast.Import):
            found += [f"line {node.lineno}: import {a.name}"
                      for a in node.names if a.name.startswith("tifcsim.monitor")]
    return found


def test_reference_uses_no_library_algebra():
    assert algebra_uses(REFERENCE.read_text()) == []


def test_checker_flags_each_shortcut():
    shortcuts = [
        "a.flows_to(b)",
        "Label.declassify(a, caps)",
        "a.uncovered(b)",
        "x = a.join",
        "getattr(a, 'pace_down')(f)",
        "a.lift_to_timing()",
        "from tifcsim.monitor import check_send",
        "import tifcsim.monitor",
        "from tifcsim import monitor",
    ]
    for line in shortcuts:
        assert algebra_uses(line), line
    assert algebra_uses("label.timing.get(user)") == []
