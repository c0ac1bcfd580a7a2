"""The scalar family columns, the spin-flip chain and the headline replays
of ``_xcore`` against the per-point matrix route, with p drawn over [0, 1]
and both endpoints.

Bits are compared wherever a replay claims them.  The w1 witness
expectation and the spin-flip concurrence have the bits of their matrix
products only on a BLAS kernel without fused multiply-adds (checked on
OpenBLAS's Prescott kernel); on others they are within a few ulp.  The
spin-flip chain rejects what the matrix route rejects, with its messages.
"""

import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nmems import InputError, NumericalError, _xcore, sweep
from nmems.measures import (
    chsh_criterion,
    concurrence_wootters,
    discord_x,
    teleportation_fidelity,
)
from nmems.registry import QUANTITIES
from nmems.states import DensityMatrix, ghz_reduced, nmems, nmems_ad, w_reduced
from nmems.sweep import CHANNEL_MODES, QUANTITY_NAMES, PRESETS, SweepSpec, run_sweep
from nmems.witnesses import evaluate, witness_generic, witness_stabilizer, witness_w1

import oracles
from test_numpy_free import _env

_PS = st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0])
_WITNESS_MATRICES = {
    "generic": lambda: witness_generic(2),
    "w1": witness_w1,
    "stabilizer": witness_stabilizer,
}


def _entries(m: np.ndarray) -> tuple:
    """The entries of a 4x4 matrix at the six places of the X form, after
    checking that they are real and that every other entry is zero."""
    rows = m.tolist()
    for i in range(4):
        for j in range(4):
            if (i, j) not in _xcore._X_PLACES and {i, j} != {0, 3}:
                assert rows[i][j] == 0.0, (i, j)
    assert all(rows[i][j].imag == 0.0 for i, j in _xcore._X_PLACES)
    return tuple(rows[i][j].real for i, j in _xcore._X_PLACES)


def test_quantity_names_list_the_registry():
    # every column has exactly one route in the engine
    assert tuple(QUANTITIES) == QUANTITY_NAMES
    routes = (set(sweep._P_ONLY), set(sweep._DAMPED), {"fidelity_ad_closed_form"})
    for name in QUANTITY_NAMES:
        assert sum(name in route for route in routes) == 1, name
    assert set().union(*routes) == set(QUANTITY_NAMES)


def test_reduced_projector_entries_are_the_matrices():
    for matrix, entries in ((ghz_reduced(), _xcore._GHZ_REDUCED),
                            (w_reduced(), _xcore._W_REDUCED)):
        assert not matrix[0, 3] and not matrix[3, 0]
        assert [v.hex() for v in _entries(matrix)] == [v.hex() for v in entries]


@pytest.mark.parametrize("name", sorted(_WITNESS_MATRICES))
def test_witness_entries_are_the_matrices(name):
    got = _entries(_WITNESS_MATRICES[name]().matrix)
    assert [v.hex() for v in got] == [v.hex() for v in _xcore._WITNESS_ENTRIES[name]]


@settings(max_examples=150, deadline=None)
@given(p=_PS, mode=st.sampled_from(CHANNEL_MODES))
@example(p=0.0, mode="closed_form")
@example(p=1.0, mode="product")
def test_family_columns_are_the_registry_bits(p, mode):
    # witness_w1 and concurrence_wootters are compared with the scalar
    # replays of their matrix products, whose bits depend on the BLAS
    # kernel (see the w1 and spin-flip tests below)
    base = _xcore._family(p)
    want = {name: QUANTITIES[name](p, 0.0, mode).hex() for name in sweep._P_ONLY}
    want["witness_w1"] = _xcore._x_expectation(_xcore._WITNESS_ENTRIES["w1"], *base[0]).hex()
    want["concurrence_wootters"] = _xcore._x_concurrence_wootters(*base[0]).hex()
    for name, column in sweep._P_ONLY.items():
        assert column(*base).hex() == want[name], name
    spec = SweepSpec(p_min=p, p_max=p, p_steps=1, theta_max=0.0, theta_steps=1,
                     quantities=tuple(sweep._P_ONLY), channel_mode=mode)
    (row,) = run_sweep(spec)
    for name, value in row.values.items():
        assert value.hex() == want[name], name


@settings(max_examples=150, deadline=None)
@given(p=_PS)
@example(p=0.0)
@example(p=0.25)
@example(p=1.0)
def test_headline_replays_match_the_matrix_route(p):
    x, _, _ = _xcore._family(p)
    rho = nmems(p)
    # bit for bit: M and N from the diagonal T; the generic and stabilizer
    # expectations, whose rows add at most one inexact product
    assert _xcore._x_chsh(*x).hex() == chsh_criterion(rho).m_value.hex()
    assert _xcore._x_correlation_sum(*x).hex() == teleportation_fidelity(rho).n_value.hex()
    for name in ("generic", "stabilizer"):
        got = _xcore._x_expectation(_xcore._WITNESS_ENTRIES[name], *x)
        assert got.hex() == evaluate(_WITNESS_MATRICES[name](), rho).expectation.hex(), name
    got = _xcore._x_expectation(_xcore._WITNESS_ENTRIES["w1"], *x)
    assert abs(got - evaluate(witness_w1(), rho).expectation) <= 1e-15


# the w1 witness column of a sweep and Tr(W rho) through the matrix product
# on OpenBLAS's kernels without fused multiply-adds, over p = i / 1000
_W1_ON_PRESCOTT = """
from nmems.states import nmems
from nmems.sweep import SweepSpec, _grid, run_sweep
from nmems.witnesses import evaluate, witness_w1
rows = run_sweep(SweepSpec(p_min=0.0, p_max=1.0, p_steps=1001, theta_max=0.0,
                           theta_steps=1, quantities=("witness_w1",)))
assert [row.p for row in rows] == _grid(0.0, 1.0, 1001)
w = witness_w1()
print(sum(evaluate(w, nmems(row.p)).expectation.hex() != row.values["witness_w1"].hex()
          for row in rows), len(rows))
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE=Prescott selects an x86 kernel")
def test_w1_column_is_the_non_fma_matrix_product(tmp_path):
    # the scalar replay rounds each product as the Prescott zgemm kernel
    # does; a fused multiply-add kernel differs from both in the last bit
    env = {**_env(), "OPENBLAS_CORETYPE": "Prescott"}
    result = subprocess.run([sys.executable, "-c", _W1_ON_PRESCOTT], capture_output=True,
                            cwd=tmp_path, env=env, check=False)
    assert result.returncode == 0, result.stderr
    assert result.stdout == b"0 1001\n"


def _spin_flip_gaps() -> tuple:
    """The spin-flip concurrence columns of sweeps over the family grid
    and the whole domain of both Kraus modes, against the per-point matrix
    route: how many defined cells differ in any bit, how many there are,
    and the largest gap in units of ulp(1)."""
    specs = [SweepSpec(p_min=0.0, p_max=1.0, p_steps=1001, theta_max=0.0, theta_steps=1,
                       quantities=("concurrence_wootters",))]
    specs += [SweepSpec(p_min=0.0, p_max=1.0, p_steps=41, theta_max=math.pi / 2,
                        theta_steps=21, quantities=("concurrence_ad_wootters",),
                        channel_mode=mode) for mode in ("correlated", "product")]
    differ = n = 0
    gap = 0.0
    for spec in specs:
        (name,) = spec.quantities
        for row in run_sweep(spec):
            cell = row.values[name]
            if cell is not None:
                want = QUANTITIES[name](row.p, row.theta, spec.channel_mode)
                n += 1
                differ += want.hex() != cell.hex()
                gap = max(gap, abs(want - cell) / sys.float_info.epsilon)
    return differ, n, gap


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE=Prescott selects an x86 kernel")
def test_spin_flip_columns_are_the_non_fma_matrix_route(tmp_path):
    # each sum of two products in sqrt(rho) and K is rounded as the Prescott
    # zgemm kernel rounds it, so the dilation, and the value, are the same
    env = {**_env(), "OPENBLAS_CORETYPE": "Prescott"}
    env["PYTHONPATH"] += os.pathsep + os.path.dirname(__file__)
    result = subprocess.run(
        [sys.executable, "-c", "import test_xcore; print(*test_xcore._spin_flip_gaps())"],
        capture_output=True, cwd=tmp_path, env=env, check=False,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == b"0 1904 0.0\n"


def test_spin_flip_columns_are_near_the_matrix_route():
    # on this process's BLAS kernel: with fused multiply-adds (OpenBLAS's
    # Haswell, SkylakeX, Zen) 286 of the 1,904 values differ, by at most
    # 2.75 ulp of 1; without them none does
    differ, n, gap = _spin_flip_gaps()
    assert n == 1_904
    assert differ in (0, 286)
    assert gap <= 4.0


@pytest.mark.parametrize("x", [
    (0.25, math.nan, 0.0, 0.25, 0.0),  # a non-finite entry
    (0.3, 0.3, math.inf, 0.3, 0.0),
    (0.3, 0.3, 0.31, 0.3, 0.0),  # eigenvalue -0.01, below the floor
    (0.5, 0.3, 0.0, 0.2, 0.1),  # trace 1.1
    (0.1, 0.1, 0.05, 0.1, 0.1),  # trace 0.4: sub-normalized
], ids=["nan", "inf", "floor", "trace", "sub_normalized"])
def test_spin_flip_chain_rejects_as_the_matrix_route(x):
    with pytest.raises(InputError) as want:
        concurrence_wootters(DensityMatrix.from_matrix(oracles.x_matrix(*x)))
    with pytest.raises(InputError) as got:
        _xcore._x_concurrence_wootters(*x)
    assert str(got.value) == str(want.value)


def test_spin_flip_jacobi_cap_propagates(monkeypatch):
    # two sweeps converge the state's single rotation but not the
    # dilation's {1, 2, 5, 6} block, on either route; the sweep aborts
    x = sweep._mode_damped_x("product", 0.1, 0.4)
    rho = DensityMatrix._from_x(*x)
    monkeypatch.setattr(_xcore, "JACOBI_MAX_SWEEPS", 2)
    with pytest.raises(NumericalError) as want:
        concurrence_wootters(rho)
    with pytest.raises(NumericalError) as got:
        _xcore._x_concurrence_wootters(*x)
    assert str(got.value) == str(want.value) == "Jacobi iteration did not converge in 2 sweeps"
    for name in ("concurrence_wootters", "concurrence_ad_wootters"):
        spec = SweepSpec(p_min=0.1, p_max=0.1, p_steps=1, theta_min=0.4, theta_max=0.4,
                         theta_steps=1, quantities=(name,), channel_mode="product")
        with pytest.raises(NumericalError, match="did not converge in 2 sweeps"):
            run_sweep(spec)


@pytest.mark.parametrize("table,k", [("_GHZ_REDUCED", 0), ("_W_REDUCED", 2),
                                     ("_W_REDUCED", 4)])
def test_perturbed_projector_entry_fails_the_family_check(monkeypatch, table, k):
    entries = list(getattr(_xcore, table))
    entries[k] += 4e-12
    monkeypatch.setattr(_xcore, table, tuple(entries))
    # p = 0.5 weighs both projectors; nmems.__wrapped__ skips its cache
    with pytest.raises(NumericalError, match="mixture and closed-form"):
        _xcore._family(0.5)
    with pytest.raises(NumericalError, match="mixture and closed-form"):
        nmems.__wrapped__(0.5)
    spec = PRESETS["fig4"]
    with pytest.raises(NumericalError, match="mixture and closed-form"):
        run_sweep(SweepSpec(p_min=0.5, p_max=0.5, p_steps=1, theta_max=0.0, theta_steps=1,
                            quantities=spec.quantities))
    with pytest.raises(NumericalError, match="mixture and closed-form"):
        sweep.report_headlines()


def test_family_check_tolerance_is_the_dense_one(monkeypatch):
    # a perturbation the 1e-12 tolerance absorbs passes both checks
    entries = list(_xcore._W_REDUCED)
    entries[0] += 5e-13
    monkeypatch.setattr(_xcore, "_W_REDUCED", tuple(entries))
    _xcore._family(0.0)
    nmems.__wrapped__(0.0)


@pytest.mark.parametrize("name,measure", [
    ("concurrence_wootters", concurrence_wootters),
    ("fidelity", teleportation_fidelity),
    ("discord", discord_x),
])
def test_family_unit_checks_are_the_registry_ones(name, measure):
    # the family is always of unit trace; a sub-normalized tag meets the
    # rejection the matrix route makes, with its message
    x = _xcore._damped_x(0.1, 0.6)
    vals, tag = _xcore._x_spectrum(*x)
    assert tag == _xcore.SUB_NORMALIZED
    with pytest.raises(InputError) as want:
        measure(nmems_ad(0.1, 0.6))
    with pytest.raises(InputError) as got:
        sweep._P_ONLY[name](x, vals, tag)
    assert str(got.value) == str(want.value)
    with pytest.raises(InputError, match="CHSH criterion requires a unit-trace state"):
        chsh_criterion(nmems_ad(0.1, 0.6))
    with pytest.raises(InputError, match="CHSH criterion requires a unit-trace state"):
        sweep._P_ONLY["chsh"](x, vals, tag)
