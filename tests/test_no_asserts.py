"""The library states its self-checks as explicit raises: ``python -O``
strips every ``assert`` statement, and a check stripped that way passes
whatever it was meant to catch."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rotnorm"


def test_no_assert_statements_in_the_library():
    sources = sorted(SRC.rglob("*.py"))
    assert sources
    found = [
        f"{path.relative_to(SRC.parent)}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"assert statements vanish under python -O: {found}"
