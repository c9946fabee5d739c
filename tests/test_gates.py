"""The decode's numeric gates are named once: the float literals 1e-6, 1e-9
and 1e-12 appear in the package only where their constants are defined, so
a default argument or an inline literal cannot move a gate."""

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
