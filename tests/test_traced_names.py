"""The package names the benchmark reaches still exist.

``bench/tracing.py`` and ``bench/run.py`` are parsed, not imported, so
deleting or renaming a traced function, or a name or keyword the
benchmark uses, fails here rather than in a benchmark run.
"""

import ast
import importlib
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
RUN = TRACING.with_name("run.py")


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


def test_every_name_and_keyword_the_benchmark_uses_exists():
    """Each ``<module>.<name>`` that ``bench/run.py`` reads from a module it
    imports with ``from pathscan import ...`` exists, each name it imports
    from a ``pathscan.*`` module exists, and each keyword it passes to such
    a name is one of its parameters."""
    tree = ast.parse(RUN.read_text())
    modules, missing = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "pathscan":
            modules.update({a.asname or a.name: importlib.import_module(f"pathscan.{a.name}")
                            for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("pathscan."):
            module = importlib.import_module(node.module)
            missing += [f"{node.module}.{a.name}" for a in node.names
                        if not hasattr(module, a.name)]
    used = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in modules]
    missing += [f"{n.value.id}.{n.attr}" for n in used
                if not hasattr(modules[n.value.id], n.attr)]
    called, bad_keywords = set(), []
    for call in ast.walk(tree):
        if (isinstance(call, ast.Call) and call.func in used
                and hasattr(modules[call.func.value.id], call.func.attr)):
            name = f"{call.func.value.id}.{call.func.attr}"
            params = inspect.signature(
                getattr(modules[call.func.value.id], call.func.attr)).parameters
            called.add(name)
            bad_keywords += [f"{name}({kw.arg}=)" for kw in call.keywords
                             if kw.arg and kw.arg not in params]
    assert {"ad", "cli", "inference", "pat_s", "baselines", "pio"} <= set(modules)
    assert "inference.rollout" in called
    assert missing == [] and bad_keywords == []
