import ast
from pathlib import Path

import algrec

SOURCES = sorted(Path(algrec.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so every check in the package must raise.
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert SOURCES and found == []
