"""Checks on the library source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _nodes():
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path, node


def test_no_assert_statements():
    # python -O strips asserts; an invariant must raise a GermkitError instead
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path, node in _nodes()
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_budget_parameters():
    # the refinement budget comes from coefflattice.refinement_budget alone
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path, node in _nodes()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        and any(a.arg == "budget" for a in ast.walk(node.args) if isinstance(a, ast.arg))
    ]
    assert found == []
