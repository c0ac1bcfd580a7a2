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
    # concurrences; at theta = 0 all fifteen are defined in every mode, at
    # theta = 0.3 only the spin-flip concurrence of a sub-normalized damped
    # state is NA
    p = 0.1
    for mode in nmems.CHANNEL_MODES:
        spec = nmems.SweepSpec(
            p_min=p, p_max=p, p_steps=1, theta_min=0.0, theta_max=0.3, theta_steps=2,
            quantities=tuple(nmems.QUANTITIES), channel_mode=mode,
        )
        rows = nmems.run_sweep(spec)
        assert [row.theta for row in rows] == [0.0, 0.3]
        for row in rows:
            na = set()
            for name, cell in row.values.items():
                try:
                    value = nmems.QUANTITIES[name](p, row.theta, mode)
                except nmems.InputError:
                    value = None
                    na.add(name)
                assert (value is None) == (cell is None), (mode, row.theta, name)
                if value is not None and name in _SPIN_FLIP:
                    # whose bits depend on the BLAS kernel
                    assert abs(value - cell) <= 4 * sys.float_info.epsilon, (mode, name)
                elif value is not None:
                    assert value.hex() == cell.hex(), (mode, row.theta, name)
            sub_normalized = row.theta > 0.0 and mode != "product"
            assert na == ({"concurrence_ad_wootters"} if sub_normalized else set())
