"""The names the benchmark's tracer wraps still exist in the package.

``bench/tracing.py`` is parsed, not imported, so deleting or renaming a
traced function fails here rather than in a traced benchmark run.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def assigned(tree: ast.Module, name: str) -> ast.expr:
    """The expression assigned to the module-level ``name``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node.value
    raise AssertionError(f"{TRACING} assigns no {name}")


def traced_names() -> list[tuple[str, str]]:
    """(module, dotted name) of every ``TARGETS`` entry and ``AUTODIFF_OPS``
    op, plus the engine flag and provider method the tracer patches."""
    tree = ast.parse(TRACING.read_text())
    targets = [(entry.elts[0].id, ast.literal_eval(entry.elts[1]))
               for entry in assigned(tree, "TARGETS").elts]
    ops = [("autodiff", op) for op in ast.literal_eval(assigned(tree, "AUTODIFF_OPS"))]
    return targets + ops + [("autodiff", "TRAP_NONFINITE"),
                            ("features", "SyntheticFeatureProvider.get")]


def test_every_traced_name_exists():
    names = traced_names()
    assert len(names) > 50
    missing = []
    for module, name in names:
        obj = importlib.import_module(f"pathscan.{module}")
        for part in name.split("."):
            if not hasattr(obj, part):
                missing.append(f"pathscan.{module}.{name}")
                break
            obj = getattr(obj, part)
    assert missing == []
