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


def test_smith_normal_form_called_only_in_lattice():
    # every quotient Z^P / span goes through SubLattice.quotient, so no
    # second copy of the Smith-form reading can grow elsewhere
    package = Path(qpoints.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "smith_normal_form":
                    found.append(f"{path.name}:{node.lineno}")
    assert len(found) == 1 and found[0].startswith("lattice.py:"), found
