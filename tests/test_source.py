"""Rules on the package source itself."""

import ast
from pathlib import Path

import setflow


def test_no_contract_rests_on_assert():
    # ``python -O`` strips assert statements, so a check that must hold in
    # every run raises an exception instead
    package = Path(setflow.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
