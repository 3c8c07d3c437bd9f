"""Rules that the library source keeps."""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "zdyn"


def test_no_assert_guards_an_invariant():
    """``python -O`` strips ``assert``, so a guard must raise instead."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
