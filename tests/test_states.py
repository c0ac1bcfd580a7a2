import math
import re
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nmems import InputError
from nmems import linalg
from nmems._xcore import MODE_CLOSED_FORM, _mode_damped_x, _x_spectrum
from nmems.channels import adc, gadc
from nmems.measures import (
    concurrence_x,
    discord_closed_form_branches,
    fidelity_ad_closed_form,
)
from nmems.states import (
    DensityMatrix,
    XStateParams,
    ghz_reduced,
    ghz_state,
    nmems,
    nmems_ad,
    projector,
    w_reduced,
    w_state,
    x_params_of,
)

import oracles


class TestPureStates:
    def test_ghz_norm(self):
        v = ghz_state()
        assert abs(np.vdot(v, v).real - 1.0) < 1e-15

    def test_ghz_first_amplitude(self):
        assert abs(ghz_state()[0, 0] - 1 / math.sqrt(2)) < 1e-15

    def test_ghz_reduction_is_diagonal(self):
        reduced = ghz_reduced()
        off = reduced - np.diag(np.diag(reduced))
        assert np.max(np.abs(off)) == 0.0

    def test_w_norm(self):
        v = w_state()
        assert abs(np.vdot(v, v).real - 1.0) < 1e-15

    def test_w_001_amplitude(self):
        assert abs(w_state()[1, 0] - 1 / math.sqrt(3)) < 1e-15

    def test_w_reduction(self):
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1 / 3
        expected[1, 1] = expected[2, 2] = expected[1, 2] = expected[2, 1] = 1 / 3
        assert np.allclose(w_reduced(), expected, atol=1e-14)


class TestFamily:
    def test_p0_is_the_mems_form(self):
        got = nmems(0.0).matrix
        assert np.allclose(got, oracles.family_matrix(0.0), atol=1e-14)
        # 1/3 |00><00| + 2/3 |Psi+><Psi+|
        psi = np.zeros((4, 1), dtype=complex)
        psi[1, 0] = psi[2, 0] = 1 / math.sqrt(2)
        mixture = np.zeros((4, 4), dtype=complex)
        mixture[0, 0] = 1 / 3
        mixture += (2 / 3) * projector(psi)
        assert np.allclose(got, mixture, atol=1e-14)

    def test_p1_is_diagonal(self):
        assert np.allclose(
            nmems(1.0).matrix, np.diag([0.5, 0.0, 0.0, 0.5]), atol=1e-14
        )

    def test_quarter_point_entries(self):
        m = nmems(0.25).matrix
        assert abs(m[0, 0] - 0.375) < 1e-14
        assert abs(m[1, 2] - 0.25) < 1e-14
        assert abs(m[3, 3] - 0.125) < 1e-14

    @given(p=st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_mixture_equals_closed_form(self, p):
        # nmems() itself raises if the two construction routes disagree; also
        # check the closed form against the oracle matrix
        state = nmems(p)
        assert np.max(np.abs(state.matrix - oracles.family_matrix(p))) < 1e-12

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            nmems(-0.01)
        with pytest.raises(InputError):
            nmems(1.01)

    def test_validated_as_density_matrices(self):
        for p in np.linspace(0.0, 1.0, 21):
            state = nmems(p)
            assert state.normalization == "unit"
            assert abs(state.trace_value - 1.0) < 1e-12
            assert float(state.spectrum.eigenvalues.min()) >= -1e-10

    def test_entangled_exactly_below_boundary(self):
        # scan p on a 1e-4 grid: concurrence > 0 iff p < 7 - sqrt(45)
        boundary = 7.0 - math.sqrt(45.0)
        for p in np.arange(0.0, 1.0 + 1e-9, 1e-4):
            c = concurrence_x(x_params_of(nmems(float(p))))
            assert (c > 0.0) == (p < boundary), f"sign mismatch at p={p}"


class TestDampedFamily:
    def test_zero_angle_is_identity(self):
        for p in (0.0, 0.3, 1.0):
            assert np.array_equal(nmems_ad(p, 0.0).matrix, nmems(p).matrix)
            assert nmems_ad(p, 0.0).normalization == "unit"

    def test_full_damping_at_p0(self):
        state = nmems_ad(0.0, math.pi / 2)
        assert np.allclose(state.matrix, np.diag([1 / 3, 0, 0, 0]), atol=1e-15)
        assert state.normalization == "sub_normalized"
        assert abs(state.trace_value - 1 / 3) < 1e-12

    def test_half_damping_at_p0(self):
        m = nmems_ad(0.0, math.pi / 4).matrix
        for i, j in ((1, 1), (2, 2), (1, 2), (2, 1)):
            assert abs(m[i, j] - 1 / 6) < 1e-12
        assert abs(m[0, 0] - 1 / 3) < 1e-14

    def test_trace_formula(self):
        for p in np.linspace(0.0, 1.0, 7):
            for theta in np.linspace(0.0, math.pi / 2, 7):
                gamma = math.sin(theta) ** 2
                expected = (
                    (p + 2.0) / 6.0
                    + 2.0 * (1.0 - p) * (1.0 - gamma) / 3.0
                    + (p / 2.0) * (1.0 - gamma) ** 2
                )
                assert abs(nmems_ad(p, theta).trace_value - expected) < 1e-12

    def test_sub_normalized_whenever_damped(self):
        assert nmems_ad(0.3, 0.2).normalization == "sub_normalized"

    def test_range_rejected(self):
        with pytest.raises(InputError):
            nmems_ad(0.5, -0.1)
        with pytest.raises(InputError):
            nmems_ad(0.5, math.pi / 2 + 0.1)
        with pytest.raises(InputError):
            nmems_ad(1.5, 0.1)


class TestXParams:
    def test_family_point(self):
        xp = x_params_of(nmems(0.1))
        assert abs(xp.a - 0.35) < 1e-14
        assert abs(xp.b - 0.3) < 1e-14
        assert abs(xp.c - 0.3) < 1e-14
        assert abs(xp.d - 0.3) < 1e-14
        assert abs(xp.e - 0.05) < 1e-14

    def test_damped_point(self):
        xp = x_params_of(nmems_ad(0.0, math.pi / 4))
        assert abs(xp.a - 1 / 3) < 1e-12
        assert abs(xp.b - 1 / 6) < 1e-12
        assert abs(xp.c - 1 / 6) < 1e-12
        assert abs(xp.d - 1 / 6) < 1e-12
        assert xp.e == 0.0

    def test_non_x_entry_rejected(self):
        m = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        m[0, 1] = m[1, 0] = 0.1
        with pytest.raises(InputError):
            x_params_of(DensityMatrix.from_matrix(m))

    def test_corner_coherence_rejected(self):
        m = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        m[0, 3] = m[3, 0] = 0.05
        with pytest.raises(InputError):
            x_params_of(DensityMatrix.from_matrix(m))

    def test_invalid_params_rejected(self):
        with pytest.raises(InputError):
            XStateParams(a=0.5, b=0.1, c=0.2, d=0.1, e=0.3)
        with pytest.raises(InputError):
            XStateParams(a=-0.1, b=0.4, c=0.0, d=0.4, e=0.3)


class TestDensityMatrixValidation:
    def test_non_hermitian_rejected(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(InputError):
            DensityMatrix.from_matrix(m)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(InputError):
            DensityMatrix.from_matrix(np.diag([1.2, 0.0, 0.0, -0.2]))

    def test_over_unit_trace_rejected(self):
        with pytest.raises(InputError):
            DensityMatrix.from_matrix(np.diag([0.8, 0.8, 0.0, 0.0]))

    def test_renormalized(self):
        state = nmems_ad(0.0, math.pi / 4)
        unit = state.renormalized()
        assert unit.normalization == "unit"
        assert abs(linalg.trace(unit.matrix).real - 1.0) < 1e-12
        assert np.allclose(
            unit.matrix, state.matrix / state.trace_value, atol=1e-14
        )

    def test_matrix_is_read_only(self):
        state = nmems(0.2)
        with pytest.raises(ValueError):
            state.matrix[0, 0] = 9.0

    @pytest.mark.parametrize(
        "m",
        [
            pytest.param(np.full((2, 3), 0.1), id="non-square"),
            pytest.param(np.array([0.5, 0.5]), id="1-d"),
            pytest.param(np.diag([0.5, np.nan, 0.0, 0.0]), id="nan"),
            pytest.param(np.diag([0.5, np.inf, 0.0, 0.0]), id="+inf"),
            pytest.param(np.diag([0.5, -np.inf, 0.0, 0.0]), id="-inf"),
            pytest.param(
                np.diag([0.5, 0.5, 0.0, 0.0]) + np.eye(4, k=1) * 0.1,
                id="non-hermitian",
            ),
            pytest.param(np.diag([0.5, 0.5 + 1e-9, 0.0, -1e-9]), id="eigenvalue"),
            pytest.param(np.zeros((4, 4)), id="zero-trace"),
            pytest.param(np.diag([0.5, 0.5 + 1e-9, 0.0, 0.0]), id="over-unit-trace"),
        ],
    )
    def test_boundary_rejects(self, m):
        with pytest.raises(InputError):
            DensityMatrix.from_matrix(m)

    @pytest.mark.parametrize("m", [
        # halved first by the Hermitian part; the diagonal sums to 2e308
        pytest.param(np.diag([1e308, 1e308]), id="halved"),
        # below the halving bound; the four entries sum past the float range
        pytest.param(np.diag([8e307] * 4), id="not-halved"),
    ])
    def test_trace_beyond_the_float_range_rejected_without_a_warning(self, m):
        # the trace overflows to inf, which the trace check rejects; numpy's
        # overflow warning must not replace that error
        with pytest.raises(InputError, match=r"trace inf outside \(0, 1\]"):
            DensityMatrix.from_matrix(m)

    def test_boundary_edges_pass(self):
        # an eigenvalue just above -1e-10 and a trace just below 1 + 1e-10
        state = DensityMatrix.from_matrix(np.diag([0.5, 0.5 + 1e-10, 0.0, -5e-11]))
        assert state.is_unit()

    def test_trace_of_the_hermitian_part_is_exactly_real(self, rng):
        # the Hermitian part's diagonal is z + conj(z), whose imaginary part
        # is y - y = 0.0, halved first or not, so from_matrix needs no check
        # that its trace is real: diagonal imaginary dust up to 5e-11, which
        # the Hermiticity check lets through, leaves none
        for n in (1, 2, 3, 4, 8):
            for scale in [*(10.0 ** k for k in range(-300, 301, 50)), 1e308]:
                for _ in range(20):
                    m = oracles.random_hermitian(rng, n)
                    m = m / np.abs(m).max() * scale
                    m = m + np.diag(1j * rng.uniform(-5e-11, 5e-11, n))
                    h = linalg._hermitian_part(m)
                    assert not h.diagonal().imag.any()
                    assert h.imag.trace() == 0.0

    def test_matrix_is_a_frozen_copy_of_the_input(self):
        m = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        state = DensityMatrix.from_matrix(m)
        m[0, 0] = 9.0
        assert state.matrix[0, 0] == 0.5
        with pytest.raises(ValueError):
            state.matrix[1, 1] = 9.0



def _assert_same_bits(got: DensityMatrix, want: DensityMatrix) -> None:
    assert got.matrix.tobytes() == want.matrix.tobytes()
    assert got.spectrum.eigenvalues.tobytes() == want.spectrum.eigenvalues.tobytes()
    assert got.spectrum.eigenvectors.tobytes() == want.spectrum.eigenvectors.tobytes()
    assert struct.pack("<d", got.trace_value) == struct.pack("<d", want.trace_value)
    assert got.normalization == want.normalization
    assert not got.matrix.flags.writeable


class TestXConstruction:
    """The family's states are ``from_matrix`` of the dense X matrix of their
    five numbers; they must be the states ``from_matrix`` makes of the
    mixture's matrix, and the scalar core's checks and spectrum must be
    theirs, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        p=st.floats(min_value=0.0, max_value=1.0),
        theta=st.floats(min_value=0.0, max_value=math.pi / 2),
    )
    @example(p=0.0, theta=0.0)
    @example(p=1.0, theta=0.0)
    @example(p=0.0, theta=math.pi / 2)
    @example(p=1.0, theta=math.pi / 2)
    def test_equals_dense_route(self, p, theta):
        _assert_same_bits(
            nmems_ad(p, theta),
            DensityMatrix.from_matrix(oracles.damped_family_matrix(p, theta)),
        )
        _assert_same_bits(
            nmems.__wrapped__(p), DensityMatrix.from_matrix(oracles.family_matrix(p))
        )

    @pytest.mark.parametrize(
        "x",
        [
            pytest.param((0.25, 0.2, 0.3, 0.2, 0.35), id="coherence-above-sqrt-bd"),
            pytest.param((0.5, 0.3, 0.0, 0.2, 0.1), id="over-unit-trace"),
            pytest.param((0.0, 0.0, 0.0, 0.0, 0.0), id="zero-trace"),
        ]
        + [
            pytest.param(
                tuple(bad if k == i else 0.25 for k in range(5)), id=f"{bad}-at-{i}"
            )
            for bad in (math.nan, math.inf, -math.inf)
            for i in range(5)
        ],
    )
    def test_rejects_like_dense_route(self, x):
        with pytest.raises(InputError) as dense:
            DensityMatrix.from_matrix(oracles.x_matrix(*x))
        with pytest.raises(InputError) as spectrum_only:
            _x_spectrum(*x)
        assert str(spectrum_only.value) == str(dense.value)

    @settings(max_examples=200, deadline=None)
    @given(
        p=st.floats(min_value=0.0, max_value=1.0),
        theta=st.floats(min_value=0.0, max_value=math.pi / 2),
    )
    @example(p=1.0, theta=math.pi / 2)
    def test_spectrum_without_the_state(self, p, theta):
        # the sweep kernel's eigenvalues and trace are the built state's bits
        a, b, c, d, e = _mode_damped_x(MODE_CLOSED_FORM, p, theta)
        rho = nmems_ad(p, theta)
        got, tag = _x_spectrum(a, b, c, d, e)
        assert np.array(got).tobytes() == rho.spectrum.eigenvalues.tobytes()
        assert tag == rho.normalization
        # the trace _x_spectrum sums, read off the trace window's message
        assert _trace_seen_by_spectrum(a, b, c, d, e) == struct.pack("<d", rho.trace_value)

    @settings(max_examples=300, deadline=None)
    @given(
        diag=st.lists(st.floats(0.0, 0.25), min_size=4, max_size=4),
        share=st.floats(-1.0, 1.0),
    )
    def test_trace_order_is_numpy_trace(self, diag, share):
        a, b, d, e = diag
        assume(a + b + d + e > 0.0)
        c = share * math.sqrt(b * d)
        rho = DensityMatrix.from_matrix(oracles.x_matrix(a, b, c, d, e))
        tr = complex(np.trace(rho.matrix)).real
        assert _trace_seen_by_spectrum(a, b, c, d, e) == struct.pack("<d", tr)

    def test_non_finite_message(self):
        x = (0.5, math.nan, 0.0, 0.5, 0.0)
        with pytest.raises(InputError, match="^matrix entries must be finite$"):
            DensityMatrix.from_matrix(oracles.x_matrix(*x))
        with pytest.raises(InputError, match="^matrix entries must be finite$"):
            _x_spectrum(*x)


def _trace_seen_by_spectrum(a, b, c, d, e) -> bytes:
    """The bits of the trace ``_x_spectrum`` sums for the five numbers, read
    off the trace window's message for the state scaled by a power of two
    that puts its trace in [2, 4): the scaling is exact, and the lowest
    eigenvalue stays above the floor."""
    k = 2 - math.frexp(a + b + d + e)[1]
    with pytest.raises(InputError) as got:
        _x_spectrum(*(math.ldexp(v, k) for v in (a, b, c, d, e)))
    shown = re.fullmatch(r"density matrix trace (\S+) outside \(0, 1\]", str(got.value))
    return struct.pack("<d", math.ldexp(float(shown.group(1)), -k))


class TestRangeChecks:
    # every scalar entry point shares one range check: NaN, infinities and
    # values just outside the range raise InputError, the upper edge passes
    @pytest.mark.parametrize(
        "call,hi",
        [
            pytest.param(lambda v: nmems(v), 1.0, id="nmems-p"),
            pytest.param(lambda v: nmems_ad(v, 0.3), 1.0, id="nmems_ad-p"),
            pytest.param(lambda v: nmems_ad(0.1, v), math.pi / 2, id="nmems_ad-theta"),
            pytest.param(lambda v: adc(v), 1.0, id="adc-gamma"),
            pytest.param(lambda v: gadc(v, 0.5), 1.0, id="gadc-gamma"),
            pytest.param(lambda v: gadc(0.5, v), 1.0, id="gadc-lambda"),
            pytest.param(
                lambda v: fidelity_ad_closed_form(v, 0.3), 1.0,
                id="fidelity_ad_closed_form-p",
            ),
            pytest.param(
                lambda v: fidelity_ad_closed_form(0.1, v), math.pi / 2,
                id="fidelity_ad_closed_form-theta",
            ),
            pytest.param(
                lambda v: discord_closed_form_branches(v), 1.0,
                id="discord_closed_form_branches-p",
            ),
        ],
    )
    def test_rejects_non_finite_and_out_of_range(self, call, hi):
        for bad in (math.nan, math.inf, -math.inf, -1e-9, math.nextafter(hi, math.inf)):
            with pytest.raises(InputError, match="must lie in"):
                call(bad)
        call(hi)
