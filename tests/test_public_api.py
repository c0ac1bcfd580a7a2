"""Every name the package exports, and every name the benchmark tracer wraps,
resolves in the installed package.

The tracer's ``TRACED`` list is read from ``bench/tracer.py`` as a literal,
without importing or running the benchmark code.
"""

import ast
import importlib
from pathlib import Path

import nmems

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _traced() -> tuple:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no TRACED list")


def test_traced_and_exported_names_resolve():
    traced = _traced()
    assert traced
    for module_name, qualname in traced:
        owner = importlib.import_module(f"nmems.{module_name}")
        for part in qualname.split("."):
            assert hasattr(owner, part), f"nmems.{module_name}.{qualname}"
            owner = getattr(owner, part)
        assert callable(owner), f"nmems.{module_name}.{qualname}"
    assert len(set(nmems.__all__)) == len(nmems.__all__)
    missing = [name for name in nmems.__all__ if not hasattr(nmems, name)]
    assert missing == []
