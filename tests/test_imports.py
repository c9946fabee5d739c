"""Every name a package module imports is used in that module, and importing
the package loads no more than it needs."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "burstyx"


def _unused_imports(source: str):
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
    for node in tree.body:
        # names re-exported through __all__ count as used
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_guard_flags_an_unused_import():
    source = "from typing import List, Optional\n\nx: List[int] = []\n"
    assert _unused_imports(source) == [(1, "Optional")]


def test_importing_the_package_loads_neither_the_cli_nor_argparse():
    """main builds its parser on first use, so `import burstyx` pays for no CLI."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import burstyx; "
        "print(sorted({'burstyx.cli', 'argparse'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code, str(PACKAGE.parent)], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
