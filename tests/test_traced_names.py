"""The benchmark traces library functions by name; every name must resolve."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def traced_names():
    """The ``TRACED`` tuple of ``bench/spans.py``, read without importing it."""
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED tuple in {SPANS}")


def test_every_traced_function_exists():
    names = traced_names()
    assert names
    missing = [f"{mod}.{name}" for mod, name in names
               if not callable(getattr(importlib.import_module(f"confrelay.{mod}"),
                                       name, None))]
    assert missing == []
