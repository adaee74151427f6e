"""Source-level checks on the library package and the names the benchmark traces."""

import ast
import importlib
import importlib.util
from pathlib import Path

import boxball

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_library_holds_no_assert():
    # python -O strips assert statements, so library checks must raise instead
    found = []
    for path in sorted(Path(boxball.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_every_traced_name_resolves():
    # the traced benchmark run wraps these module attributes; a rename breaks it
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in spans.TARGETS
        if not callable(getattr(importlib.import_module(f"boxball.{module}"), attr, None))
    ]
    assert spans.TARGETS and not missing, missing
