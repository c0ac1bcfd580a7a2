"""The scalar family columns, the spin-flip chain and the headline replays
of ``_xcore`` against the per-point matrix route, with p drawn over [0, 1]
and both endpoints.

Bits are compared wherever a replay claims them.  The w1 witness
expectation has the bits of its matrix product only on a BLAS kernel
without fused multiply-adds (checked on OpenBLAS's Prescott kernel); on
others it is within a few ulp.  The spin-flip chain takes the singular
values sqrt(a e), sqrt(a e), sqrt(b d) +- |c| of K = sqrt(rho) (sy x sy)
sqrt(rho)* as they are known exactly for a corner-free X state: it is
checked against the matrix route to 4 ulp of 1 on any kernel, against a
40-digit reference to 1 ulp of 1 and against the closed X formula's printed
digits, and it rejects what the matrix route rejects, with its messages.
"""

import decimal
import itertools
import math
import platform
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nmems import InputError, NumericalError, _xcore, linalg, sweep
from nmems.measures import (
    chsh_criterion,
    concurrence_wootters,
    discord_x,
    teleportation_fidelity,
)
from nmems.registry import QUANTITIES
from nmems.states import DensityMatrix, XStateParams, ghz_reduced, nmems, nmems_ad, w_reduced
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


# the spin-flip concurrence columns of sweeps over the family grid and the
# whole domain of every channel mode, sub-normalized damped states included
_SPIN_FLIP_SPECS = [
    SweepSpec(p_min=0.0, p_max=1.0, p_steps=1001, theta_max=0.0, theta_steps=1,
              quantities=("concurrence_wootters",)),
    *(SweepSpec(p_min=0.0, p_max=1.0, p_steps=41, theta_max=math.pi / 2, theta_steps=21,
                quantities=("concurrence_ad_wootters",), channel_mode=mode)
      for mode in CHANNEL_MODES),
]
# the benchmark's 60 x 20 sweeps of the damped column, one per channel mode
_BENCHMARKS = [SweepSpec(p_min=0.0, p_max=0.292, p_steps=60, theta_max=math.pi / 4,
                         theta_steps=20, quantities=("concurrence_ad_wootters",),
                         channel_mode=mode)
               for mode in CHANNEL_MODES]


def _spin_flip_cells(specs: list):
    """(spec, row, the cell's five numbers, value) of every cell of the
    one-column sweeps ``specs``."""
    for spec in specs:
        (name,) = spec.quantities
        for row in run_sweep(spec):
            if name == "concurrence_wootters":
                x = _xcore._family_x(row.p)
            else:
                x = _xcore._mode_damped_x(spec.channel_mode, row.p, row.theta)
            yield spec, row, x, row.values[name]


def test_spin_flip_columns_are_near_the_matrix_route():
    # on any BLAS kernel; with OpenBLAS's SkylakeX kernel 449 of the 1,904
    # values of the family grid and the two Kraus modes differed in some
    # bit, by at most 2.5 ulp of 1
    n = 0
    gap = 0.0
    for spec, row, _, cell in _spin_flip_cells(_SPIN_FLIP_SPECS):
        (name,) = spec.quantities
        want = QUANTITIES[name](row.p, row.theta, spec.channel_mode)
        n += 1
        gap = max(gap, abs(want - cell) / sys.float_info.epsilon)
    assert n == 3_584
    assert gap <= 4.0


_CONTEXT = decimal.Context(prec=40)


def _reference_concurrence(a: float, c: float, e: float) -> decimal.Decimal:
    """2 max(0, |c| - sqrt(a e)) at 40 digits: the concurrence of the
    corner-free X state with those entries (Yu and Eberly, QIC 7, 459)."""
    root = _CONTEXT.sqrt(_CONTEXT.multiply(decimal.Decimal(a), decimal.Decimal(e)))
    gap = _CONTEXT.subtract(abs(decimal.Decimal(c)), root)
    return max(decimal.Decimal(0), _CONTEXT.multiply(2, gap))


def test_spin_flip_columns_are_near_the_reference():
    # within 1 ulp of 1 of the 40-digit value (0.96 measured), sub-normalized
    # damped states included; the printed 12 digits are the correctly
    # rounded ones in every cell, also where the true value sits within an
    # ulp of 1 of a rounding boundary (closed_form at a = 0.380833...,
    # product at a = 0.708482...)
    rounded = decimal.Context(prec=12)
    n = 0
    worst = decimal.Decimal(0)
    off = []
    for spec, row, (a, _, c, _, e), cell in _spin_flip_cells(
            [*_SPIN_FLIP_SPECS, *_BENCHMARKS]):
        ref = _reference_concurrence(a, c, e)
        n += 1
        worst = max(worst, abs(decimal.Decimal(cell) - ref))
        printed = sweep._format_value(cell)
        if decimal.Decimal(printed) != rounded.plus(ref):
            off.append((spec.channel_mode, a, printed, str(rounded.plus(ref))))
    assert n == 7_184
    assert worst <= sys.float_info.epsilon
    assert off == []


def test_spin_flip_columns_print_the_x_formula_digits():
    # each spin-flip column beside the closed X formula's column of the same
    # state, over the family grid, then the whole domain and the
    # benchmark's 60 x 20 grid in every channel mode
    grids = [dict(p_max=1.0, p_steps=41, theta_max=math.pi / 2, theta_steps=21),
             dict(p_max=0.292, p_steps=60, theta_max=math.pi / 4, theta_steps=20)]
    specs = [SweepSpec(p_min=0.0, p_max=1.0, p_steps=1001, theta_max=0.0, theta_steps=1,
                       quantities=("concurrence_wootters", "concurrence"))]
    specs += [SweepSpec(**grid, quantities=("concurrence_ad_wootters", "concurrence_ad"),
                        channel_mode=mode)
              for grid in grids for mode in CHANNEL_MODES]
    n = 0
    off = []
    for spec in specs:
        for row in run_sweep(spec):
            n += 1
            printed = [sweep._format_value(row.values[name]) for name in spec.quantities]
            if printed[0] != printed[1]:
                off.append((spec.channel_mode, row.p, row.theta, *printed))
    assert n == 7_184
    assert off == []


@pytest.mark.parametrize("x", [
    (1.0, 0.0, 0.0, 0.0, 0.0),  # pure |00>: K = 0, every singular value 0
    (0.0, 0.5, 0.5, 0.5, 0.0),  # a Bell state
    (0.5, 0.0, 0.0, 0.0, 0.5),  # sqrt(b d) = |c| = 0 beside nonzero corners
    (0.25, 0.25, 0.25, 0.25, 0.25),
    (0.3, 0.2, 0.0, 0.2, 0.3),  # b == d, c = 0: no rotation
    (0.1, 0.1, 0.05, 0.1, 0.1),  # trace 0.4: the raw value, 0.4 C(rho / 0.4)
], ids=["pure", "bell", "corners", "rank_three", "degenerate", "sub_normalized"])
def test_spin_flip_chain_at_rank_deficient_edges(x):
    got = _xcore._x_concurrence_wootters(*x)
    want = concurrence_wootters(DensityMatrix.from_matrix(oracles.x_matrix(*x)))
    assert abs(got - want) <= 4 * sys.float_info.epsilon
    assert abs(decimal.Decimal(got) - _reference_concurrence(x[0], x[2], x[4])) \
        <= 2 * sys.float_info.epsilon


@pytest.mark.parametrize("x", [
    (0.25, math.nan, 0.0, 0.25, 0.0),  # a non-finite entry
    (0.3, 0.3, math.inf, 0.3, 0.0),
    (0.3, 0.3, 0.31, 0.3, 0.0),  # eigenvalue -0.01, below the floor
    (0.5, 0.3, 0.0, 0.2, 0.1),  # trace 1.1
], ids=["nan", "inf", "floor", "trace"])
def test_spin_flip_chain_rejects_as_the_matrix_route(x):
    # the sweep's chain: _x_spectrum's checks, the only ones either route
    # makes, then the column
    with pytest.raises(InputError) as want:
        concurrence_wootters(DensityMatrix.from_matrix(oracles.x_matrix(*x)))
    with pytest.raises(InputError) as got:
        _xcore._x_spectrum(*x)
        _xcore._x_concurrence_wootters(*x)
    assert str(got.value) == str(want.value)


def test_spin_flip_jacobi_cap_propagates(monkeypatch):
    # one sweep does not orthogonalize this state's K; the matrix route's
    # one-sided sweeps abort with the Jacobi cap's message, and the scalar
    # chain, which reads K's singular values off the five numbers, has no
    # iteration to cap
    x = _xcore._mode_damped_x("product", 0.1, 0.4)
    rho = DensityMatrix.from_matrix(oracles.x_matrix(*x))
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 1)
    with pytest.raises(NumericalError, match="did not converge in 1 sweeps"):
        concurrence_wootters(rho)


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
    ("fidelity", teleportation_fidelity),
    ("discord", discord_x),
])
def test_family_unit_checks_are_the_registry_ones(name, measure):
    # the family is always of unit trace; a sub-normalized tag meets the
    # rejection the matrix route makes, with its message
    x = _xcore._mode_damped_x(_xcore.MODE_CLOSED_FORM, 0.1, 0.6)
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


# finite entries of any sign, signed zeros, subnormals and the values at
# the eigenvalue floor among them
_ENTRIES = (st.floats(-1.0, 1.0) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-8, -1e-11, 0.5, 1e-300]))


@settings(max_examples=150, deadline=None)
@given(x=st.tuples(_ENTRIES, _ENTRIES, _ENTRIES, _ENTRIES, _ENTRIES))
@example(x=(-0.0, 0.5, 0.5, 0.5, -0.0))
@example(x=(0.25, -0.0, -0.0, 0.25, 0.25))
@example(x=(0.5 - 1e-8, 1e-8, math.sqrt(0.5e-8) + 2e-9, 0.5, 0.0))
def test_spectrum_concurrence_is_the_clamped_dataclass_route(x):
    # on finite numbers the clamp leaves only the coherence bound to fail:
    # the rejection XStateParams makes of the clamped numbers, with its
    # message, or else the bits of the X formula on them
    a, b, c, d, e = (max(v, 0.0) if k != 2 else v for k, v in enumerate(x))
    try:
        XStateParams(a, b, c, d, e)
    except InputError as exc:
        with pytest.raises(InputError) as got:
            _xcore._x_spectrum_concurrence(*x)
        assert str(got.value) == str(exc)
    else:
        want = 2.0 * max(abs(c) - math.sqrt(a * e), 0.0)
        assert _xcore._x_spectrum_concurrence(*x).hex() == want.hex()


def test_concurrence_columns_reject_the_coherence_bound_alone():
    # b and d far apart: |c| passes sqrt(b d) by 2e-9 while the smallest
    # eigenvalue stays above the floor, so _x_spectrum accepts the state
    # and only the coherence bound rejects it, as XStateParams does
    b, d = 1e-8, 0.5
    x = (0.5 - b, b, math.sqrt(b * d) + 2e-9, d, 0.0)
    vals, tag = _xcore._x_spectrum(*x)
    assert vals[-1] < 0.0 and tag == _xcore.UNIT
    with pytest.raises(InputError) as want:
        XStateParams(*x)
    assert str(want.value) == "coherence |c| exceeds sqrt(b*d); not a valid state"
    for column in (lambda: sweep._P_ONLY["concurrence"](x, vals, tag),
                   lambda: sweep._DAMPED["concurrence_ad"](tuple([v] for v in x), None, None),
                   lambda: _xcore._x_spectrum_concurrence(*x)):
        with pytest.raises(InputError) as got:
            column()
        assert str(got.value) == str(want.value)


def _sorted_spin_flip(a: float, b: float, c: float, d: float, e: float) -> float:
    """max(0, s1 - s2 - s3 - s4) of K's singular values sqrt(a e) twice and
    sqrt(b d) +- |c| sorted descending, each clamp a builtin max: the form
    ``_xcore._x_concurrence_wootters`` evaluates without a sort."""
    corner = math.sqrt(max(a, 0.0) * max(e, 0.0))
    inner = math.sqrt(max(b, 0.0) * max(d, 0.0))
    s1, s2, s3, s4 = sorted((corner, corner, inner + abs(c), abs(inner - abs(c))),
                            reverse=True)
    return max(0.0, s1 - s2 - s3 - s4)


# signed zeros, subnormals, the smallest normal, a product that underflows,
# a value below zero inside the eigenvalue floor, and values whose roots
# tie: sqrt(a e) = sqrt(b d) + |c| at a = e = 0.5, b = c = d = 0.25, and
# sqrt(a e) = |sqrt(b d) - |c|| at a = e = 0.25, b = d = 0.5, c = 0.25
_SPIN_FLIP_EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-160, -1e-11,
                    0.25, 0.5, 1.0)


def test_spin_flip_value_is_the_sorted_form_on_the_edges():
    # every five-tuple of the edge values, bit for bit, -0.0 apart from 0.0
    n = 0
    for x in itertools.product(_SPIN_FLIP_EDGES, repeat=5):
        assert _xcore._x_concurrence_wootters(*x).hex() == _sorted_spin_flip(*x).hex(), x
        n += 1
    assert n == 100_000


@st.composite
def _tied_spin_flips(draw):
    """Five numbers where sqrt(a e) = a = e ties with sqrt(b d) + |c| or
    with |sqrt(b d) - |c||, as the function rounds them."""
    b, c, d = draw(_ENTRIES), draw(_ENTRIES), draw(_ENTRIES)
    inner = math.sqrt(max(b, 0.0) * max(d, 0.0))
    corner = draw(st.sampled_from([inner + abs(c), abs(inner - abs(c))]))
    return corner, b, c, d, corner


@settings(max_examples=150, deadline=None)
@given(x=st.tuples(_ENTRIES, _ENTRIES, _ENTRIES, _ENTRIES, _ENTRIES) | _tied_spin_flips())
@example(x=(0.5, 0.25, 0.25, 0.25, 0.5))
@example(x=(0.25, 0.25, -0.25, 0.25, 0.25))
@example(x=(-0.0, 0.5, -0.0, -0.0, 0.5))
def test_spin_flip_value_is_the_sorted_form(x):
    assert _xcore._x_concurrence_wootters(*x).hex() == _sorted_spin_flip(*x).hex()


# the whole domain of the row pass: the 201 x 201 grid, both ends
# included, and the lines next to its edges (the float next to p = 1 and to
# theta = pi/2, the smallest subnormal and a tiny gamma)
_ROW_PS = sweep._grid(0.0, 1.0, 201) + [math.nextafter(1.0, 0.0), 5e-324, 1e-300]
_ROW_THETAS = sweep._grid(0.0, math.pi / 2.0, 201) + [
    math.nextafter(math.pi / 2.0, 0.0), 5e-324, 1e-8]
_ROW_FACTORS = tuple(zip(*map(_xcore._theta_factors, _ROW_THETAS)))


def _cell_route(x: tuple):
    """The message of ``_x_spectrum``'s rejection of ``x``, or the hex of
    the entropy of its eigenvalues."""
    try:
        vals, _ = _xcore._x_spectrum(*x)
    except InputError as exc:
        return str(exc)
    return _xcore._spectrum_entropy(vals).hex()


def _row_pass(cols: tuple):
    """``_x_row``'s rejection message on ``cols``, or its entropies in hex."""
    try:
        return [v.hex() for v in _xcore._x_row(*cols, True)]
    except InputError as exc:
        return str(exc)


@pytest.mark.parametrize("mode", CHANNEL_MODES)
def test_row_pass_is_the_cell_route_over_the_whole_domain(mode):
    # every damped state of a row is the mode's image at its cell, and the
    # row pass gives each cell's entropy, hex for hex, and None without
    # entropies; the d column is the b column, and so is the c column
    # where the image keeps b == c
    for p in _ROW_PS:
        cols = _xcore._damped_columns(mode, _xcore._family(p)[0], _ROW_FACTORS)
        assert cols[3] is cols[1] and (cols[2] is cols[1]) == (mode != "product")
        cells = [_xcore._mode_damped_x(mode, p, theta) for theta in _ROW_THETAS]
        assert [[v.hex() for v in x] for x in zip(*cols)] == [
            [v.hex() for v in x] for x in cells], (mode, p)
        assert _row_pass(cols) == [_cell_route(x) for x in cells], (mode, p)
        assert _xcore._x_row(*cols, False) is None


# states with b == d (c >= 0) on both sides of each check of _x_spectrum:
# finite entries, the eigenvalue floor -1e-10 and the trace window
# (0, 1 + 1e-10], in the row pass's two arms (b == c, and b != c), and
# traces whose last bit shows the order of the sum, (a + b) + (d + e)
_ROW_EDGES = [
    (1.0, 0.0, 0.0, 0.0, 1e-10), (1.0, 0.0, 0.0, 0.0, 2e-10),
    (-1e-10, 0.0, 0.0, 0.0, 0.5), (-2e-10, 0.0, 0.0, 0.0, 0.5),
    (5e-324, 0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0, 0.0), (0.0, -0.0, -0.0, -0.0, 0.0),
    (0.0, 0.5, 0.5, 0.5, 0.0), (0.2, 0.3, 0.3, 0.3, 0.2), (0.5, 0.25, 1e-12, 0.25, 0.0),
    (0.5, 0.25, 1.0000001e-12, 0.25, 0.0), (0.5, 0.0, 1e-12, 0.0, 0.5),
    (0.5, 0.0, 1.0000001e-12, 0.0, 0.5), (0.5, 1e-12, 1e-12, 1e-12, 0.5),
    (0.5, 2e-12, 2e-12, 2e-12, 0.5), (0.3, 0.3, 0.31, 0.3, 0.0),
    (0.2, 0.25, 0.25 + 1e-10, 0.25, 0.3), (0.2, 0.25, 0.25 + 2e-10, 0.25, 0.3),
    (-0.01, 0.2, 0.2, 0.2, 0.61), (0.4, 0.2, 0.2, 0.2, 0.3), (0.5, 0.25, 0.0, 0.25, 0.1),
    (-0.5, 0.0, 0.0, 0.0, 2.0), (0.6, 0.2, 0.0, 0.2, -1e-10), (0.6, 0.2, 0.2, 0.2, -2e-10),
    (1.5, 1e-16, 0.0, 1e-16, 1e-16), (1.5, 1e-16, 1e-16, 1e-16, 1e-16),
    (0.5, 1e308, 1e308, 1e308, 0.0),
    *[tuple(v if i in places else 0.25 for i in range(5))
      for places, values in (((0,), (math.nan, math.inf, -math.inf)),
                             ((1, 3), (math.nan, math.inf, -math.inf)),
                             ((2,), (math.nan, math.inf)),
                             ((4,), (math.nan, math.inf, -math.inf)))
      for v in values],
]


def _with_cells(cols: tuple, cells: dict) -> tuple:
    """``cols`` with the states ``cells`` (by index) put in, b in the b and
    d columns; c stays in the b column where every state there has b == c."""
    a, b, c, _, e = (list(col) for col in cols)
    for k, x in cells.items():
        a[k], b[k], c[k], _, e[k] = x
    if cols[2] is cols[1] and all(x[1] == x[2] for x in cells.values()):
        c = b
    return a, b, c, b, e


@pytest.mark.parametrize("mode", CHANNEL_MODES)
def test_row_pass_rejects_as_the_cell_route(mode):
    # one edge state put into a row of the grid: the row pass rejects it
    # with _x_spectrum's message, or gives its entropy, and each real
    # cell's; of two rejected states, the earlier in the row is reported,
    # whatever check rejects either
    for p in _ROW_PS[::20]:
        x = _xcore._family(p)[0]
        cols = _xcore._damped_columns(mode, x, _ROW_FACTORS)
        want = [_cell_route(cell) for cell in zip(*cols)]
        for k, edge in itertools.product((0, 57, len(_ROW_THETAS) - 1), _ROW_EDGES):
            assert str(edge[1]) == str(edge[3]) and not edge[2] < 0.0
            row = _with_cells(cols, {k: edge})
            got = _row_pass(row)
            edge_route = _cell_route(edge)
            if edge_route.startswith(("density", "matrix")):
                assert got == edge_route, (mode, p, k, edge)
            else:
                assert got == want[:k] + [edge_route] + want[k + 1:], (mode, p, k, edge)
        rejected = [e for e in _ROW_EDGES if _cell_route(e).startswith(("density", "matrix"))]
        for first, second in itertools.permutations(rejected[::4], 2):
            got = _row_pass(_with_cells(cols, {3: first, 150: second}))
            assert got == _cell_route(first), (mode, p, first, second)
