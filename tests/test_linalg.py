import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nmems import InputError, NumericalError
from nmems import _xcore, linalg, measures
from nmems.witnesses import SIGMA_X, SIGMA_Z
from nmems.states import DensityMatrix, nmems, nmems_ad

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


class TestKronPairs:
    """``_kron_pairs`` forms np.kron's products of 2x2 blocks by one
    broadcast, with np.kron's bits."""

    def _blocks(self, rng, *lead):
        m = rng.standard_normal((*lead, 2, 2)) + 1j * rng.standard_normal((*lead, 2, 2))
        # signed zeros, a subnormal and large and tiny parts among the ordinary ones
        flat = m.reshape(-1)
        flat[::5] = complex(-0.0, 0.0)
        flat[1::7] = complex(5e-324, -0.0)
        flat[2::11] = complex(1e150, -1e-300)
        return m

    def test_single_pair(self, rng):
        a, b = self._blocks(rng), self._blocks(rng)
        assert linalg._kron_pairs(a, b).tobytes() == np.kron(a, b).tobytes()

    def test_stacks(self, rng):
        ops = self._blocks(rng, 4)
        every = linalg._kron_pairs(ops[:, None], ops[None, :]).reshape(-1, 4, 4)
        want = [np.kron(ki, kj) for ki in ops for kj in ops]
        assert every.tobytes() == np.array(want).tobytes()
        same = linalg._kron_pairs(ops, ops)
        assert same.tobytes() == np.array([np.kron(k, k) for k in ops]).tobytes()


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

    def test_entries_near_the_float_limit_stay_finite(self):
        # m + m^dagger overflows at 1.5e308, after the finiteness check has
        # passed; the Hermitian part halves each term first there
        m = np.diag([1.5e308, 1.0])
        assert linalg._hermitian_part(m).tolist() == [[1.5e308, 0.0], [0.0, 1.0]]
        assert linalg.hermitian_eigen(m).eigenvalues.tolist() == [1.5e308, 1.0]
        root = linalg.psd_sqrt(m)
        assert np.array_equal(root, np.diag([math.sqrt(1.5e308), 1.0]))

    def test_an_eigenvalue_beyond_the_float_range_is_a_numerical_error(self):
        # finite entries whose larger eigenvalue, 2e308, has no float: the
        # iteration would return it as inf
        m = [[1e308, 1e308], [1e308, 1e308]]
        for call in (linalg.hermitian_eigen, DensityMatrix.from_matrix):
            with pytest.raises(NumericalError, match="overflows the float range"):
                call(m)

    @pytest.mark.filterwarnings("error")
    def test_a_huge_non_hermitian_matrix_is_rejected_without_overflow(self):
        # m - m^dagger overflows at 2e308; the residual of the halves does not
        with pytest.raises(InputError, match="not Hermitian"):
            linalg.hermitian_eigen([[0.0, 1e308], [-1e308, 0.0]])

    @pytest.mark.parametrize("scale", [1.0, 1e308])
    def test_hermiticity_tolerance_is_the_same_for_huge_entries(self, scale):
        # an anti-Hermitian pair +-4e-11 leaves a residual of 8e-11 and
        # passes, +-6e-11 one of 1.2e-10 and fails, halved or not
        for dust, passes in ((4e-11, True), (6e-11, False)):
            m = np.diag([scale, 0.0]).astype(complex)
            m[0, 1], m[1, 0] = dust, -dust
            if passes:
                assert linalg._hermitian_part(m)[0, 1] == 0.0
            else:
                with pytest.raises(InputError, match="not Hermitian"):
                    linalg._hermitian_part(m)


def _hermitian_from_upper(diag, upper: dict) -> np.ndarray:
    """The Hermitian matrix with this diagonal and these entries (i, j),
    i < j, mirrored by conjugation entry by entry, so that every signed zero
    survives (adding triangles would turn -0.0 into +0.0)."""
    m = np.diag(np.array(diag, dtype=complex))
    for (i, j), z in upper.items():
        m[i, j] = z
        m[j, i] = z.conjugate()
    return m


def _sweep_cases(rng) -> list:
    """Seeded Hermitian matrices for the sweep's byte oracle, with the
    structured ones where a signed zero could come out differently."""
    mats = []
    # dense complex states of rank 1 to 4
    for rank in (1, 2, 3, 4):
        for _ in range(100):
            g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
            m = g @ g.conj().T
            mats.append(m / np.trace(m).real)
    # real symmetric Grams T^T T: of states' correlation matrices, and random
    for _ in range(50):
        rho = DensityMatrix.from_matrix(oracles.random_density(rng, 4))
        t = measures.correlation_matrix(rho).t
        mats.append(t.T @ t)
        t = rng.standard_normal((3, 3))
        mats.append(t.T @ t)
    # X states, with and without corners, with signed zeros everywhere the
    # X form has a zero and on the diagonal
    entries = [0.0, -0.0, 0.1, 0.25, 0.3]
    coherences = [0.0, -0.0, 0.1, -0.2]
    for _ in range(300):
        upper = {(i, j): complex(rng.choice([0.0, -0.0]), rng.choice([0.0, -0.0]))
                 for (i, j) in ((0, 1), (0, 2), (1, 3), (2, 3))}
        for (i, j) in ((1, 2), (0, 3)):
            upper[i, j] = complex(rng.choice(coherences), rng.choice(coherences))
        mats.append(_hermitian_from_upper(rng.choice(entries, 4), upper))
    mats += [nmems(p).matrix for p in (0.0, 0.3, 1.0)]
    mats += [nmems_ad(p, theta).matrix for p in (0.0, 0.3, 1.0) for theta in (0.0, 0.4)]
    # purely imaginary off-diagonals, some with a negative-zero real part,
    # and sparse patterns of them
    for n in (2, 3, 4, 8):
        for _ in range(50):
            upper = {(i, j): complex(rng.choice([0.0, -0.0]),
                                     rng.choice([0.0, -0.0, 0.5, -0.25, 2e-12]))
                     for i in range(n) for j in range(i + 1, n)}
            mats.append(_hermitian_from_upper(rng.choice(entries, n), upper))
    # every size, dense
    for n in (1, 2, 3, 4, 8):
        mats += [oracles.random_hermitian(rng, n) for _ in range(20)]
    # zero, diagonal and repeated-eigenvalue matrices
    for n in (1, 2, 3, 4, 8):
        mats += [np.zeros((n, n)), np.diag(rng.standard_normal(n)), 0.25 * np.eye(n)]
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        vals = np.repeat([0.5, 0.125], [(n + 1) // 2, n // 2])
        mats.append((q * vals) @ q.conj().T)
    mats += [np.diag([-0.0, 0.0, 0.0, 1.0]), [[0.25]]]
    return mats


class TestSymmetricSweep:
    """``_diagonalize`` mirrors rows p and q from the new column entries by
    conjugation; the eigenvalues, eigenvectors and rotation counts must be
    the two-sided sweep's (``oracles._diagonalize``), byte for byte."""

    def test_matches_the_two_sided_sweep(self, rng, monkeypatch):
        mats = _sweep_cases(rng)
        old_counts, new_counts = [], []
        two_sided = oracles._rotate
        symmetric = linalg._diagonalize

        def count_two_sided(*args):
            old_counts[-1] += 1
            two_sided(*args)

        def count_symmetric(w, v):
            new_counts.append(symmetric(w, v))
            return new_counts[-1]

        monkeypatch.setattr(oracles, "_rotate", count_two_sided)
        monkeypatch.setattr(linalg, "_diagonalize", count_symmetric)
        for m in mats:
            m = linalg._hermitian_part(m)
            old_counts.append(0)
            want_vals, want_vecs = oracles.two_sided_jacobi(m.tolist())
            spec = linalg._jacobi(m.tolist())
            assert spec.eigenvectors.tobytes() == want_vecs.tobytes()
            assert spec.eigenvalues.tobytes() == want_vals.tobytes()
        assert new_counts == old_counts
        # the cases rotate: none-, one- and many-rotation matrices alike
        assert {0, 1} < set(new_counts) and max(new_counts) > 20

    def test_returns_its_rotation_count(self):
        # a corner-free X state with a coherence rotates once; a diagonal
        # matrix not at all
        assert linalg._diagonalize(nmems(0.3).matrix.tolist(), np.eye(4).tolist()) == 1
        assert linalg._diagonalize(np.diag([0.5, 0.25]).astype(complex).tolist(),
                                   np.eye(2).tolist()) == 0


_AT_THRESHOLD = linalg.JACOBI_OFFDIAG_TOL
_ABOVE_THRESHOLD = math.nextafter(_AT_THRESHOLD, 1.0)
# ordinary entries plus the edges: zero, subnormal, tiny, and the rotation
# threshold on either side
_ENTRY = st.one_of(
    st.floats(-1.0, 1.0),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e-17, _AT_THRESHOLD, _ABOVE_THRESHOLD]),
)
# real coherences: the entries and their negations
_REAL_COHERENCE = st.one_of(_ENTRY, st.builds(lambda x: -x, _ENTRY))


class TestXEigenvalues:
    """``_x_eigenvalues`` replays ``_jacobi`` on a corner-free X matrix with
    a real coherence, on floats; it must give the same eigenvalues, bit for
    bit."""

    @settings(max_examples=500, deadline=None)
    @given(a=_ENTRY, b=_ENTRY, c=_REAL_COHERENCE, d=_ENTRY, e=_ENTRY)
    @example(a=0.5, b=0.25, c=0.0, d=0.25, e=0.0)
    @example(a=0.2, b=0.3, c=_AT_THRESHOLD, d=0.1, e=0.4)
    @example(a=0.2, b=0.3, c=_ABOVE_THRESHOLD, d=0.1, e=0.4)
    @example(a=0.2, b=0.3, c=-_ABOVE_THRESHOLD, d=0.3, e=0.2)
    @example(a=0.1, b=0.3, c=-0.2, d=0.2, e=0.4)
    @example(a=0.1, b=-0.0, c=-0.2, d=0.0, e=-0.0)
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
        got = _xcore._x_eigenvalues(a, b, c, d, e)
        assert all(type(v) is float for v in got)
        assert np.array(got).tobytes() == want.tobytes()

    @pytest.mark.parametrize("c", [0.1j, 0.1 + 0j, complex(0.0, _ABOVE_THRESHOLD)])
    def test_spectrum_refuses_a_complex_coherence(self, c):
        # the float replay's domain is a real c; _x_spectrum, its only
        # caller in the package, refuses any complex one before the replay
        with pytest.raises(TypeError):
            _xcore._x_spectrum(0.2, 0.3, c, 0.3, 0.2)


def _memo_cases(rng) -> list:
    """Seeded dense, X and 2x2 inputs, and matrices with signed zeros."""
    mats = [oracles.random_hermitian(rng, 4) for _ in range(20)]
    mats += [oracles.random_density(rng, 4) for _ in range(20)]
    mats += [oracles.random_x_state(rng) for _ in range(10)]
    mats += [oracles.random_hermitian(rng, 2) for _ in range(10)]
    # a real symmetric state whose imaginary parts are all -0.0, and a
    # coherence whose imaginary part is a zero of either sign
    real = oracles.random_density(rng, 4).real
    mats.append(real + 1j * np.full((4, 4), -0.0))
    mats += [np.array([[0.5, complex(0.1, z)], [0.1, 0.5]]) for z in (0.0, -0.0)]
    return mats


class TestSpectrumMemo:
    """``hermitian_eigen``, ``psd_sqrt`` and ``DensityMatrix.from_matrix``
    share one memoized spectrum per symmetrized matrix: the bits of a fresh
    ``_jacobi``, read-only, with every check still run on a hit."""

    def test_one_diagonalization_per_state(self, rng, monkeypatch):
        linalg._spectrum.cache_clear()
        sizes = []
        inner = linalg._diagonalize

        def count(w, v):
            sizes.append(len(w))
            return inner(w, v)

        monkeypatch.setattr(linalg, "_diagonalize", count)
        rho = DensityMatrix.from_matrix(oracles.random_density(rng, 4))
        linalg.psd_sqrt(rho.matrix)
        assert linalg.hermitian_eigen(rho.matrix) is rho.spectrum
        assert sizes == [4]

    def test_same_bits_as_a_fresh_jacobi(self, rng):
        for m in _memo_cases(rng):
            want = linalg._jacobi(linalg._hermitian_part(m).tolist())
            # the first call may fill the memo, the second reads it
            for spec in (linalg.hermitian_eigen(m), linalg.hermitian_eigen(m)):
                assert spec.eigenvalues.tobytes() == want.eigenvalues.tobytes()
                assert spec.eigenvectors.tobytes() == want.eigenvectors.tobytes()

    def test_signed_zeros_are_distinct_keys(self):
        pos, neg = (np.array([[0.5, complex(0.1, z)], [0.1, 0.5]]) for z in (0.0, -0.0))
        h_pos, h_neg = linalg._hermitian_part(pos), linalg._hermitian_part(neg)
        assert np.array_equal(h_pos, h_neg) and h_pos.tobytes() != h_neg.tobytes()
        assert linalg.hermitian_eigen(pos) is not linalg.hermitian_eigen(neg)

    def test_stored_matrix_is_its_own_hermitian_part(self, rng):
        # why psd_sqrt(rho.matrix) finds the spectrum from_matrix took
        states = [oracles.random_density(rng, 4) for _ in range(50)]
        states += [oracles.random_x_state(rng) for _ in range(50)]
        for m in states + [nmems(0.3).matrix, nmems(1.0).matrix]:
            stored = DensityMatrix.from_matrix(m).matrix
            assert linalg._hermitian_part(stored).tobytes() == stored.tobytes()

    def test_cached_arrays_are_read_only(self, rng):
        rho = DensityMatrix.from_matrix(oracles.random_density(rng, 4))
        for spec in (rho.spectrum, linalg.hermitian_eigen(rho.matrix)):
            with pytest.raises(ValueError):
                spec.eigenvalues[0] = 2.0
            with pytest.raises(ValueError):
                spec.eigenvectors[0, 0] = 2.0

    def test_mutated_input_gets_its_own_result(self, rng):
        m = oracles.random_density(rng, 4)
        first = DensityMatrix.from_matrix(m)
        # still a state, now a different one
        m *= 0.5
        m += I4 / 8.0
        second = DensityMatrix.from_matrix(m)
        want = linalg._jacobi(linalg._hermitian_part(m).tolist())
        for spec in (second.spectrum, linalg.hermitian_eigen(m)):
            assert spec.eigenvalues.tobytes() == want.eigenvalues.tobytes()
            assert spec.eigenvectors.tobytes() == want.eigenvectors.tobytes()
        assert second.spectrum.eigenvalues.tobytes() != first.spectrum.eigenvalues.tobytes()

    def test_checks_run_on_a_hit(self):
        indefinite = np.diag([0.75, 0.5, 0.0, -0.25])
        linalg.hermitian_eigen(indefinite)
        with pytest.raises(InputError, match="below the PSD floor"):
            linalg.psd_sqrt(indefinite)
        with pytest.raises(InputError, match="negative eigenvalue"):
            DensityMatrix.from_matrix(indefinite)
        over_unit = np.diag([0.75, 0.75])
        linalg.hermitian_eigen(over_unit)
        with pytest.raises(InputError, match="trace"):
            DensityMatrix.from_matrix(over_unit)
        # a non-Hermitian matrix whose Hermitian part is in the memo
        skew = np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex)
        DensityMatrix.from_matrix(np.full((2, 2), 0.5))
        for call in (linalg.hermitian_eigen, linalg.psd_sqrt, DensityMatrix.from_matrix):
            with pytest.raises(InputError, match="not Hermitian"):
                call(skew)

    def test_bounded_at_256_entries(self, rng):
        linalg._spectrum.cache_clear()
        for _ in range(300):
            linalg.hermitian_eigen(oracles.random_hermitian(rng, 2))
        info = linalg._spectrum.cache_info()
        assert (info.maxsize, info.currsize, info.misses) == (256, 256, 300)


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
