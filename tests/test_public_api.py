"""Every name the package exports, and every name the benchmark tracer wraps,
resolves in the installed package; the quantity registry is callable from
outside the package.

The tracer's ``TRACED`` list is read from ``bench/tracer.py`` as a literal,
without importing or running the benchmark code.
"""

import ast
import importlib
import sys
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


# the spin-flip concurrences replay a matrix product on scalars (test_xcore)
_SPIN_FLIP = ("concurrence_wootters", "concurrence_ad_wootters")


def test_quantities_take_grid_coordinates():
    # every registry entry is called as (p, theta, mode) and gives the
    # run_sweep cell bit for bit, or within 4 ulp of 1 for the spin-flip
    # concurrences, in every mode at theta = 0 and at theta = 0.3, where the
    # damped state of closed_form and correlated is sub-normalized
    p = 0.1
    for mode in nmems.CHANNEL_MODES:
        spec = nmems.SweepSpec(
            p_min=p, p_max=p, p_steps=1, theta_min=0.0, theta_max=0.3, theta_steps=2,
            quantities=tuple(nmems.QUANTITIES), channel_mode=mode,
        )
        rows = nmems.run_sweep(spec)
        assert [row.theta for row in rows] == [0.0, 0.3]
        for row in rows:
            for name, cell in row.values.items():
                value = nmems.QUANTITIES[name](p, row.theta, mode)
                if name in _SPIN_FLIP:
                    # whose bits depend on the BLAS kernel
                    assert abs(value - cell) <= 4 * sys.float_info.epsilon, (mode, name)
                else:
                    assert value.hex() == cell.hex(), (mode, row.theta, name)


PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nmems"


def _unused_private_imports() -> list:
    """(module, name) of every underscore name a module of the package
    imports from a sibling module and never reads in its own code: a
    re-export, which binds a private name where nothing uses it."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            for alias in node.names
            if alias.name.startswith("_")
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(path.stem, name) for name in sorted(imported - used)]
    return unused


def test_private_imports_are_used():
    # tests import the scalar core's private names from nmems._xcore
    assert _unused_private_imports() == []
