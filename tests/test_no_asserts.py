"""Every internal check in the package is an explicit raise.

``python -O`` strips ``assert`` statements, so a check written as one would
silently stop running there.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "eag"


def test_package_has_no_assert_statements():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
