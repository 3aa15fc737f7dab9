"""Every name the benchmark's tracer wraps resolves on the package, so a
refactor that drops or moves one fails here and not only in traced runs."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets() -> list[tuple[str, str]]:
    """(module, attribute) of each TARGETS entry, read from the source."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                [t.id for t in node.targets] == ["TARGETS"]:
            return [(entry.elts[0].value, entry.elts[1].value)
                    for entry in node.value.elts]
    raise AssertionError("no TARGETS in perfbench/spans.py")


def test_trace_targets_resolve():
    targets = _targets()
    assert targets
    for module, attr in targets:
        owner = importlib.import_module(f"shellmoves.{module}")
        for part in attr.split("."):
            assert hasattr(owner, part), f"shellmoves.{module}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"shellmoves.{module}.{attr}"
