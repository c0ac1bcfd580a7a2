import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nmems import InputError, NumericalError
from nmems import linalg
from nmems.witnesses import SIGMA_X, SIGMA_Z
from nmems.states import nmems

import oracles

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)


class TestKron:
    def test_identity(self):
        assert np.array_equal(linalg.kron(I2, I2), I4)

    def test_pauli_x_pair_is_antidiagonal(self):
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 3] = expected[1, 2] = expected[2, 1] = expected[3, 0] = 1.0
        assert np.allclose(linalg.kron(SIGMA_X, SIGMA_X), expected, atol=0)

    def test_undamped_kraus_pair_is_identity(self):
        from nmems.channels import adc

        e0 = adc(0.0).operators[0]
        assert np.allclose(linalg.kron(e0, e0), I4, atol=0)

    def test_against_block_definition(self, rng):
        a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        b = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        assert np.allclose(linalg.kron(a, b), oracles.naive_kron(a, b), atol=1e-14)

    def test_associative(self, rng):
        a, b, c = (
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            for _ in range(3)
        )
        left = linalg.kron(linalg.kron(a, b), c)
        right = linalg.kron(a, linalg.kron(b, c))
        assert np.allclose(left, right, atol=1e-14)


class TestTrace:
    def test_identity(self):
        assert linalg.trace(I4) == 4.0

    def test_sigma_z(self):
        assert linalg.trace(SIGMA_Z) == 0.0

    def test_family_states_are_normalized(self):
        for p in (0.0, 0.1, 0.25, 0.292, 0.7, 1.0):
            assert abs(linalg.trace(nmems(p).matrix) - 1.0) < 1e-12

    def test_non_square_rejected(self):
        with pytest.raises(InputError):
            linalg.trace(np.zeros((2, 3)))


class TestHermitianEigen:
    def test_diagonal_input_sorted(self):
        spec = linalg.hermitian_eigen(np.diag([3.0, 1.0, 2.0]))
        assert np.array_equal(spec.eigenvalues, [3.0, 2.0, 1.0])

    def test_family_p0_spectrum(self):
        spec = linalg.hermitian_eigen(nmems(0.0).matrix)
        assert np.allclose(spec.eigenvalues, [2 / 3, 1 / 3, 0.0, 0.0], atol=1e-12)

    def test_matches_characteristic_polynomial(self, rng):
        for _ in range(25):
            m = oracles.random_hermitian(rng, 4)
            got = linalg.hermitian_eigen(m).eigenvalues
            want = oracles.char_poly_eigenvalues(m)
            assert np.allclose(got, want, atol=1e-8)

    def test_reconstruction_and_orthonormality_bulk(self, rng):
        # 1000 random Hermitian 4x4 matrices
        for _ in range(1000):
            m = oracles.random_hermitian(rng, 4)
            spec = linalg.hermitian_eigen(m)
            v = spec.eigenvectors
            rec = (v * spec.eigenvalues) @ v.conj().T
            assert np.max(np.abs(rec - m)) < 1e-10
            assert np.max(np.abs(v.conj().T @ v - I4)) < 1e-10
            assert np.all(np.diff(spec.eigenvalues) <= 1e-15)

    def test_eigenvalue_sum_is_trace(self, rng):
        for n in (2, 3, 4, 8):
            m = oracles.random_hermitian(rng, n)
            spec = linalg.hermitian_eigen(m)
            assert abs(spec.eigenvalues.sum() - linalg.trace(m).real) < 1e-10

    def test_non_hermitian_rejected(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(InputError):
            linalg.hermitian_eigen(m)

    def test_offdiagonal_at_threshold_converges(self):
        # |w_pq| == 1e-12 is not rotated, so the first sweep rotates nothing
        # and ends the iteration instead of spinning to the sweep cap
        spec = linalg.hermitian_eigen([[0.0, 1e-12], [1e-12, 0.0]])
        assert np.array_equal(spec.eigenvalues, [0.0, 0.0])
        assert np.array_equal(spec.eigenvectors, np.eye(2))

    def test_offdiagonal_above_threshold_rotated(self):
        spec = linalg.hermitian_eigen([[0.0, 2e-12], [2e-12, 0.0]])
        assert np.allclose(spec.eigenvalues, [2e-12, -2e-12], rtol=1e-12, atol=0.0)

    def test_one_by_one(self):
        spec = linalg.hermitian_eigen([[0.25]])
        assert np.array_equal(spec.eigenvalues, [0.25])
        assert np.array_equal(spec.eigenvectors, [[1.0]])


_AT_THRESHOLD = linalg.JACOBI_OFFDIAG_TOL
_ABOVE_THRESHOLD = math.nextafter(_AT_THRESHOLD, 1.0)
# ordinary entries plus the edges: zero, subnormal, tiny, and the rotation
# threshold on either side
_ENTRY = st.one_of(
    st.floats(-1.0, 1.0),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e-17, _AT_THRESHOLD, _ABOVE_THRESHOLD]),
)
_COHERENCE = st.one_of(
    _ENTRY, st.builds(complex, _ENTRY, _ENTRY), st.builds(lambda x: -x, _ENTRY)
)


class TestXEigenvalues:
    """``_x_eigenvalues`` replays ``_jacobi`` on a corner-free X matrix; it
    must give the same eigenvalues, bit for bit."""

    @settings(max_examples=500, deadline=None)
    @given(a=_ENTRY, b=_ENTRY, c=_COHERENCE, d=_ENTRY, e=_ENTRY)
    @example(a=0.5, b=0.25, c=0.0, d=0.25, e=0.0)
    @example(a=0.2, b=0.3, c=_AT_THRESHOLD, d=0.1, e=0.4)
    @example(a=0.2, b=0.3, c=_ABOVE_THRESHOLD, d=0.1, e=0.4)
    @example(a=0.2, b=0.3, c=complex(0.0, _ABOVE_THRESHOLD), d=0.3, e=0.2)
    @example(a=0.1, b=0.3, c=0.2 - 0.1j, d=0.2, e=0.4)
    @example(a=0.0, b=1e-300, c=1e-300, d=0.0, e=5e-324)
    def test_matches_jacobi_bit_for_bit(self, a, b, c, d, e):
        z = 0j
        w = [
            [complex(a), z, z, z],
            [z, complex(b), complex(c), z],
            [z, complex(c.conjugate()), complex(d), z],
            [z, z, z, complex(e)],
        ]
        want = linalg._jacobi(w).eigenvalues
        got = linalg._x_eigenvalues(a, b, c, d, e)
        assert all(type(v) is float for v in got)
        assert np.array(got).tobytes() == want.tobytes()


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(linalg.psd_sqrt(I4), I4, atol=1e-12)

    def test_diagonal(self):
        got = linalg.psd_sqrt(np.diag([4.0, 9.0, 0.0, 1.0]))
        assert np.allclose(got, np.diag([2.0, 3.0, 0.0, 1.0]), atol=1e-12)

    def test_squares_back(self):
        rho = nmems(0.1).matrix
        root = linalg.psd_sqrt(rho)
        assert np.max(np.abs(root @ root - rho)) < 1e-9

    def test_indefinite_rejected(self):
        with pytest.raises(InputError):
            linalg.psd_sqrt(np.diag([1.0, -0.5]))

    def test_roundoff_negatives_clamped(self):
        m = np.diag([1.0, -5e-11])
        root = linalg.psd_sqrt(m)
        assert root[1, 1].real == 0.0


class TestPartialTrace:
    def test_product_state_factorizes(self, rng):
        rho_a = oracles.random_density(rng, 2)
        rho_b = oracles.random_density(rng, 2)
        joint = linalg.kron(rho_a, rho_b)
        assert np.allclose(
            linalg.partial_trace(joint, (2, 2), (0,)), rho_a, atol=1e-12
        )
        assert np.allclose(
            linalg.partial_trace(joint, (2, 2), (1,)), rho_b, atol=1e-12
        )

    def test_ghz_reduction_by_index_summation(self):
        from nmems.states import ghz_state, projector

        rho = projector(ghz_state())
        got = linalg.partial_trace(rho, (2, 2, 2), (0, 1))
        want = oracles.brute_partial_trace(rho, (2, 2, 2), (0, 1))
        assert np.allclose(got, want, atol=1e-14)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = expected[3, 3] = 0.5
        assert np.allclose(got, expected, atol=1e-14)

    def test_w_reduction_matches_mems_form(self):
        from nmems.states import w_state, projector

        got = linalg.partial_trace(projector(w_state()), (2, 2, 2), (0, 1))
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1 / 3
        expected[1, 1] = expected[2, 2] = expected[1, 2] = expected[2, 1] = 1 / 3
        assert np.allclose(got, expected, atol=1e-14)

    def test_random_against_brute_force(self, rng):
        m = oracles.random_hermitian(rng, 8)
        for keep in ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2)):
            got = linalg.partial_trace(m, (2, 2, 2), keep)
            want = oracles.brute_partial_trace(m, (2, 2, 2), keep)
            assert np.allclose(got, want, atol=1e-13)

    def test_preserves_trace(self, rng):
        m = oracles.random_density(rng, 8)
        reduced = linalg.partial_trace(m, (2, 2, 2), (1,))
        assert abs(linalg.trace(reduced) - linalg.trace(m)) < 1e-12

    def test_bad_dims_rejected(self):
        with pytest.raises(InputError):
            linalg.partial_trace(np.eye(4), (2, 3), (0,))

    def test_empty_keep_rejected(self):
        with pytest.raises(InputError):
            linalg.partial_trace(np.eye(4), (2, 2), ())

    def test_out_of_range_keep_rejected(self):
        with pytest.raises(InputError):
            linalg.partial_trace(np.eye(4), (2, 2), (2,))
