"""Checks on the package source itself."""

import ast
from pathlib import Path

import qpoints


def test_no_assert_statements():
    # python -O strips assert statements, so no guard may rely on one
    package = Path(qpoints.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
