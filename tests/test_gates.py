"""The decode's numeric gates are named once: the float literals 1e-6, 1e-9
and 1e-12 appear in the package only where their constants are defined, so
a default argument or an inline literal cannot move a gate. Likewise the
test of an input in [0, 1] is written once, in channel._check_unit, so
every entry point refuses such an input with the same message."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "burstyx"

# module -> {constant: value}: the one definition of each gate
GATES = {
    "linalg.py": {"DEFAULT_EPS": 1e-12, "RECON_TOL": 1e-6},
    "decode.py": {"STRUCT_TOL": 1e-9},
}
GATE_VALUES = {value for names in GATES.values() for value in names.values()}


def _gate_literals(source: str):
    """(line, value) of each gate literal, and {name: value} of the module-level
    constants defined as a bare gate literal."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Constant)
        ):
            defined[node.targets[0].id] = node.value
    definitions = set(defined.values())  # AST nodes compare by identity
    stray = sorted(
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and type(node.value) is float
        and node.value in GATE_VALUES
        and node not in definitions
    )
    named = {name: const.value for name, const in defined.items() if const.value in GATE_VALUES}
    return stray, named


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_gate_literals_appear_only_in_their_definitions(path):
    stray, named = _gate_literals(path.read_text())
    assert stray == []
    assert named == GATES.get(path.name, {})


def test_guard_flags_a_default_argument_and_an_inline_literal():
    source = "RECON_TOL = 1e-6\n\ndef solve(y, tol=1e-6):\n    return abs(y) <= 1e-9 * tol\n"
    assert _gate_literals(source) == ([(3, 1e-6), (4, 1e-9)], {"RECON_TOL": 1e-6})


def _literal(node, value) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) in (int, float) and node.value == value


def _unit_interval_tests(source: str):
    """(line, enclosing function or None) of each chained comparison 0 <= x <= 1."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (
            isinstance(node, ast.Compare)
            and len(node.ops) == 2
            and all(isinstance(op, ast.LtE) for op in node.ops)
            and _literal(node.left, 0)
            and _literal(node.comparators[1], 1)
        ):
            found.append((node.lineno, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def test_the_unit_interval_is_tested_only_in_check_unit():
    found = [
        (path.name, func)
        for path in sorted(PACKAGE.glob("*.py"))
        for _line, func in _unit_interval_tests(path.read_text())
    ]
    assert found == [("channel.py", "_check_unit")]


def test_unit_guard_flags_each_spelling_and_no_other_range():
    source = (
        "def check(p):\n"
        "    return 0 <= p <= 1 or not 0.0 <= p <= 1.0\n"
        "other = 0 < r <= 1 or 0 <= x < 1 or 1e-4 <= s <= 0.5 or False <= b <= True\n"
        "top = 0 <= q <= 1\n"
    )
    assert _unit_interval_tests(source) == [(2, "check"), (2, "check"), (4, None)]
