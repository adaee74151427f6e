"""Source-level checks on the library package."""

import ast
from pathlib import Path

import boxball


def test_library_holds_no_assert():
    # python -O strips assert statements, so library checks must raise instead
    found = []
    for path in sorted(Path(boxball.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
