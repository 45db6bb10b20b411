"""The benchmark's per-layer metrics wrap package functions by name, so a
rename in the package would silently zero a metric. This checks that every
name in `bench/spans.py` still resolves; the file is parsed, not run."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _name_tables() -> dict:
    tree = ast.parse(SPANS.read_text())
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in ("SPANNED", "COUNTED")
    }


def test_every_spanned_name_resolves():
    tables = _name_tables()
    assert set(tables) == {"SPANNED", "COUNTED"}
    missing = [
        f"{layer}.{name}"
        for table in tables.values()
        for layer, names in table.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"reflectwalk.{layer}"), name, None))
    ]
    assert missing == []
