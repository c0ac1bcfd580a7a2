import cmath
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from nmems import InputError, _xcore, linalg, measures, states
from nmems._xcore import (
    CHANNEL_MODES,
    _mode_damped_x,
    _spectrum_entropy,
    _x_correlations,
    _x_fidelity,
    _x_singular_values,
)
from nmems.channels import adc, apply_product_pair
from nmems.measures import (
    binary_entropy,
    chsh_criterion,
    concurrence_wootters,
    concurrence_x,
    correlation_matrix,
    discord_x,
    fidelity_ad_closed_form,
    fidelity_from_correlation,
    mid_adc,
    mid_dephasing,
    teleportation_fidelity,
    von_neumann_entropy,
)
from nmems.states import (
    DensityMatrix,
    XStateParams,
    nmems,
    nmems_ad,
    projector,
    x_params_of,
)
from nmems.sweep import _grid
from nmems.witnesses import SIGMA_X, SIGMA_Y

import oracles
from oracles import (
    discord_closed_form,
    discord_closed_form_branches,
    discord_closed_form_residuals,
)

LN2 = math.log(2.0)
EPS = sys.float_info.epsilon
# tolerances in eps = 2^-52, each about four times the worst measured
FACTORED_C = 2
SPIN_FLIP_C = 2
LONG_FORM_C = 2
DISCORD_SLIP_C = 16


def _bell_psi_plus():
    v = np.zeros((4, 1), dtype=complex)
    v[1, 0] = v[2, 0] = 1.0 / math.sqrt(2.0)
    return DensityMatrix.from_matrix(projector(v))


def _bell_phi_plus():
    v = np.zeros((4, 1), dtype=complex)
    v[0, 0] = v[3, 0] = 1.0 / math.sqrt(2.0)
    return DensityMatrix.from_matrix(projector(v))


MAX_MIXED = DensityMatrix.from_matrix(np.eye(4) / 4.0)
PURE_00 = DensityMatrix.from_matrix(np.diag([1.0, 0.0, 0.0, 0.0]))


def _spin_flip_k(rho):
    """K = sqrt(rho) (sy x sy) sqrt(rho)*, as the route forms it."""
    root = linalg.spectrum_sqrt(rho.spectrum)
    return root @ measures._YY @ root.conj()


def _correlation_t(rho):
    return correlation_matrix(rho).t


# diagonal entries of a valid XStateParams: signed zeros, a subnormal and
# tiny and large values among the ordinary ones
_DIAGONAL = st.floats(0.0, 1.0) | st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e-8, 1.0])


class TestConcurrence:
    def test_family_p0(self):
        assert abs(concurrence_x(x_params_of(nmems(0.0))) - 2.0 / 3.0) < 1e-12

    def test_zero_exactly_at_boundary_root(self):
        p_star = 7.0 - math.sqrt(45.0)
        assert concurrence_x(x_params_of(nmems(p_star))) < 1e-8
        assert concurrence_x(x_params_of(nmems(p_star + 1e-6))) == 0.0
        assert concurrence_x(x_params_of(nmems(p_star - 1e-6))) > 0.0

    def test_damped_half_at_quarter_turn(self):
        got = concurrence_x(x_params_of(nmems_ad(0.0, math.pi / 4)))
        assert abs(got - 1.0 / 3.0) < 1e-12

    def test_damped_vanishes_at_full_damping(self):
        assert concurrence_x(x_params_of(nmems_ad(0.0, math.pi / 2))) == 0.0

    def test_matches_family_oracle(self):
        for p in np.linspace(0.0, 1.0, 101):
            got = concurrence_x(x_params_of(nmems(float(p))))
            assert abs(got - oracles.family_concurrence(float(p))) < 1e-12

    @pytest.mark.parametrize("x", [
        (-1e-3, 0.5, 0.0, 0.5, 0.0), (0.0, -1e-3, 0.0, 0.5, 0.0),
        (0.0, 0.5, 0.0, -1e-3, 0.0), (0.0, 0.5, 0.0, 0.5, -1e-3),
        (0.0, 0.25, 0.26, 0.25, 0.0), (0.0, 0.25, -0.26j, 0.25, 0.0),
        (math.nan, 0.5, 0.0, 0.5, 0.0), (0.0, 0.5, complex(0.0, math.nan), 0.5, 0.0),
        (math.inf, 0.5, 0.0, 0.5, 0.0), (0.0, 0.5, 0.0, 0.5, math.inf),
        (0.0, math.inf, math.inf, math.inf, 0.0),
    ])
    def test_scalar_route_rejects_like_the_dataclass(self, x):
        # concurrence_x takes no unchecked numbers: XStateParams, and the
        # scalar check it runs (states._check_x_params), reject each of
        # these with the message of the first check that fails, in order:
        # finite entries, a non-negative diagonal, the coherence bound
        a, b, c, d, e = x
        if not all(map(cmath.isfinite, x)):
            message = "X-state parameters must be finite"
        elif min(a, b, d, e) < 0.0:
            name = next(n for n, v in zip("abde", (a, b, d, e)) if v < 0.0)
            message = f"X-state parameter {name} must be non-negative"
        else:
            message = "coherence |c| exceeds sqrt(b*d); not a valid state"
        for build in (lambda: XStateParams(*x), lambda: states._check_x_params(*x)):
            with pytest.raises(InputError) as got:
                build()
            assert str(got.value) == message

    def test_scalar_route_builds_no_dataclass(self, monkeypatch):
        # the sweep's concurrence columns run concurrence_x's function on
        # five numbers
        def boom(self):
            raise AssertionError("XStateParams built")

        monkeypatch.setattr(XStateParams, "__post_init__", boom)
        assert _xcore._x_spectrum_concurrence(0.0, 0.5, 0.5, 0.5, 0.0) == 1.0

    @settings(max_examples=150, deadline=None)
    @given(diag=st.tuples(*[_DIAGONAL] * 4), share=st.floats(0.0, 1.0),
           phase=st.sampled_from(["+", "-", "+0j", "-0j", "j", "-j", "polar"]),
           angle=st.floats(0.0, 2.0 * math.pi))
    @example(diag=(-0.0, 0.5, 0.5, -0.0), share=1.0, phase="-0j", angle=0.0)
    @example(diag=(0.25, 0.25, 0.25, 0.25), share=1.0, phase="+", angle=0.0)
    @example(diag=(0.0, -0.0, 0.5, 0.5), share=0.0, phase="-", angle=0.0)
    def test_is_the_x_formula_bit_for_bit(self, diag, share, phase, angle):
        # every valid XStateParams, complex c and signed zeros included,
        # has the bits of 2 max(|c| - sqrt(a e), 0) (Yu and Eberly)
        a, b, d, e = diag
        r = share * math.sqrt(b * d)
        c = {"+": r, "-": -r, "+0j": complex(r, 0.0), "-0j": complex(-r, -0.0),
             "j": complex(0.0, r), "-j": complex(-0.0, -r),
             "polar": cmath.rect(r, angle)}[phase]
        want = 2.0 * max(abs(c) - math.sqrt(a * e), 0.0)
        assert concurrence_x(XStateParams(a, b, c, d, e)).hex() == want.hex()

    def test_scaling_law_under_damping(self):
        for p in np.linspace(0.0, 0.99, 34):
            base = concurrence_x(x_params_of(nmems(float(p))))
            for theta in np.linspace(0.0, math.pi / 2, 16):
                gamma = math.sin(theta) ** 2
                damped = concurrence_x(x_params_of(nmems_ad(float(p), float(theta))))
                assert abs(damped - (1.0 - gamma) * base) < 1e-12


@st.composite
def _spin_flip_states(draw):
    """A unit-trace two-qubit state: a random corner-free X state (c = 0,
    b == d and pure diagonals among its edges), the damped family in a
    Kraus mode where its trace is 1, or a seeded dense state of rank 1..4."""
    kind = draw(st.sampled_from(["x", "image", "dense"]))
    if kind == "x":
        diag = draw(st.lists(st.floats(0.0, 1.0) | st.just(0.0), min_size=4, max_size=4))
        total = sum(diag)
        assume(total > 0.0)
        a, b, d, e = (v / total for v in diag)
        if draw(st.booleans()):
            b = d = (b + d) / 2.0
        share = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
        phase = draw(st.sampled_from([1.0, -1.0, 1j]) | st.floats(0.0, 2.0 * math.pi).map(
            lambda t: complex(math.cos(t), math.sin(t))))
        c = share * math.sqrt(b * d) * phase
        return DensityMatrix.from_matrix(oracles.x_matrix(a, b, c, d, e))
    if kind == "image":
        p = draw(st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0]))
        # the correlated map keeps unit trace only without damping
        mode = draw(st.sampled_from(["product", "correlated"]))
        theta = 0.0 if mode == "correlated" else draw(
            st.floats(0.0, math.pi / 2) | st.sampled_from([0.0, math.pi / 2]))
        rho = DensityMatrix.from_matrix(oracles.x_matrix(*_mode_damped_x(mode, p, theta)))
        assert rho.is_unit()
        return rho
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = draw(st.integers(1, 4))
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    rho = g @ g.conj().T
    return DensityMatrix.from_matrix(rho / np.trace(rho).real)


class TestWoottersConcurrence:
    def test_bell_state(self):
        assert abs(concurrence_wootters(_bell_psi_plus()) - 1.0) < 1e-10

    def test_maximally_mixed(self):
        assert concurrence_wootters(MAX_MIXED) < 1e-10

    def test_family_grid_equivalence(self):
        for p in np.linspace(0.0, 1.0, 50):
            state = nmems(float(p))
            assert abs(
                concurrence_wootters(state) - concurrence_x(x_params_of(state))
            ) < 1e-9

    def test_random_x_states_equivalence(self, rng):
        for _ in range(100):
            state = DensityMatrix.from_matrix(oracles.random_x_state(rng))
            assert abs(
                concurrence_wootters(state) - concurrence_x(x_params_of(state))
            ) < 1e-9

    def test_sub_normalized_state_gives_its_raw_value(self):
        # C(t rho) = t C(rho): sqrt(t rho) = sqrt(t) sqrt(rho), so K and its
        # singular values scale by the trace t; the raw value is the X
        # formula's on the same state, as the sweep's concurrence_ad reads it
        eps = np.finfo(float).eps
        for p, theta in ((0.0, 0.5), (0.1, 0.6), (0.2, 1.2), (1.0, math.pi / 2)):
            rho = nmems_ad(p, theta)
            assert not rho.is_unit()
            got = concurrence_wootters(rho)
            t = rho.trace_value
            assert abs(got - t * concurrence_wootters(rho.renormalized())) <= 4 * eps
            assert abs(got - concurrence_x(x_params_of(rho))) <= 4 * eps

    @seed(20260809)
    @settings(max_examples=300, deadline=None)
    @given(rho=_spin_flip_states())
    def test_singular_values_match_lapack(self, rho):
        # X states, damped images and seeded dense states of rank 1..4: the
        # one-sided sweeps give LAPACK's singular values of the same K to
        # 8 eps ||K||_2 (4.8 measured over 4,000 dense states), and the
        # route takes exactly those
        k = _spin_flip_k(rho)
        got = linalg._singular_values(k)
        want = np.linalg.svd(k, compute_uv=False)
        assert np.max(np.abs(np.array(got) - want)) <= 8 * np.finfo(float).eps * want[0]
        s1, s2, s3, s4 = got
        assert concurrence_wootters(rho) == max(0.0, s1 - s2 - s3 - s4)

    @pytest.mark.parametrize("matrix,rho,want", [
        # |00><00|: K = 0, every column zero; nothing to rotate or divide by
        (_spin_flip_k, PURE_00, [0.0] * 4),
        # Bell states: rank-1 K, s = (1, 0, 0, 0)
        (_spin_flip_k, _bell_psi_plus(), [1.0, 0.0, 0.0, 0.0]),
        (_spin_flip_k, _bell_phi_plus(), [1.0, 0.0, 0.0, 0.0]),
        # the maximally mixed state: four equal singular values 1/4
        (_spin_flip_k, MAX_MIXED, [0.25] * 4),
        # the correlation matrix T of the same states: zero for I/4,
        # diag(0, 0, 1) for |00><00| and diag(1, -1, 1) for a Bell state
        (_correlation_t, MAX_MIXED, [0.0] * 3),
        (_correlation_t, PURE_00, [1.0, 0.0, 0.0]),
        (_correlation_t, _bell_phi_plus(), [1.0, 1.0, 1.0]),
    ], ids=["pure_00", "psi_plus", "phi_plus", "max_mixed",
            "t_max_mixed", "t_pure_00", "t_phi_plus"])
    def test_singular_values_at_the_edges(self, matrix, rho, want):
        got = linalg._singular_values(matrix(rho))
        assert np.allclose(got, want, rtol=0.0, atol=4 * np.finfo(float).eps)
        assert got == sorted(got, reverse=True)

    def test_dust_column_terminates(self, monkeypatch):
        # sqrt(rho) of this family state leaves a column of rounding dust in
        # K that lies along another; the relative rule alone passes it sweep
        # after sweep (12 sweeps, each shrinking it by about eps), and the
        # absolute floor eps^2 ||K||_F^2 ends the iteration after 3
        rho = nmems(0.8470190208649004)
        monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 6)
        assert concurrence_wootters(rho) == 0.0 == concurrence_x(x_params_of(rho))

    def test_eigenvalues_only(self, monkeypatch):
        # the only eigenvalues (and eigenvectors) the route uses are rho's
        # stored spectrum: it runs no Hermitian eigensolver of its own
        states = {
            "x": DensityMatrix.from_matrix(
                oracles.x_matrix(*_mode_damped_x("product", 0.1, 0.4))),
            "dense": DensityMatrix.from_matrix(
                oracles.random_density(np.random.default_rng(5), 4)
            ),
        }
        want = {name: concurrence_wootters(rho) for name, rho in states.items()}

        def boom(*args):
            raise AssertionError("a Hermitian eigensolver ran")

        # sqrt(rho) comes from the spectrum DensityMatrix.from_matrix took,
        # and K's singular values from the one-sided sweeps alone
        monkeypatch.setattr(linalg, "hermitian_eigen", boom)
        monkeypatch.setattr(linalg, "_jacobi", boom)
        monkeypatch.setattr(linalg, "_diagonalize", boom)
        roots = []
        inner = linalg.spectrum_sqrt

        def spy(spec):
            roots.append(spec)
            return inner(spec)

        monkeypatch.setattr(linalg, "spectrum_sqrt", spy)
        for name, rho in states.items():
            assert concurrence_wootters(rho) == want[name]
        assert [id(spec) for spec in roots] == [id(rho.spectrum) for rho in states.values()]


class TestCorrelationMatrix:
    def test_family_diagonal(self):
        for p in np.linspace(0.0, 1.0, 21):
            t = correlation_matrix(nmems(float(p))).t
            expected = np.diag(
                [2.0 * (1.0 - p) / 3.0, 2.0 * (1.0 - p) / 3.0, (4.0 * p - 1.0) / 3.0]
            )
            assert np.max(np.abs(t - expected)) < 1e-12

    def test_maximally_mixed_vanishes(self):
        assert np.max(np.abs(correlation_matrix(MAX_MIXED).t)) < 1e-14

    def test_bell_state_signature(self):
        t = correlation_matrix(_bell_psi_plus()).t
        assert np.allclose(t, np.diag([1.0, 1.0, -1.0]), atol=1e-12)

    def test_same_bits_as_np_trace(self, rng):
        # the batched trace by the array method, with np.trace's bits
        states = [DensityMatrix.from_matrix(oracles.random_density(rng, 4))
                  for _ in range(200)]
        states += [nmems(0.2), nmems_ad(0.3, 0.8), MAX_MIXED, PURE_00, _bell_phi_plus()]
        for rho in states:
            want = np.trace(rho.matrix @ measures._PAULI_TENSOR, axis1=2, axis2=3).real
            assert correlation_matrix(rho).t.tobytes() == want.tobytes()


class TestCorrelationSingularValues:
    """T's singular values are taken by the one-sided Jacobi on its columns,
    never through T^T T, whose squares fall below the sweep's absolute
    1e-12 rule."""

    @staticmethod
    def _local_unitary(rng):
        q, r = np.linalg.qr(rng.standard_normal((2, 2))
                            + 1j * rng.standard_normal((2, 2)))
        return q * (np.diag(r) / np.abs(np.diag(r)))

    @pytest.mark.parametrize("delta", [1e-6, 1e-9, 1e-12])
    def test_small_values_match_lapack(self, rng, delta):
        # Bell-diagonal (I x I + sum_i c_i sigma_i x sigma_i) / 4 with
        # T = diag(0.6, delta, 0), under seeded local unitaries, which keep
        # T's singular values: the route, N and M agree with LAPACK's on the
        # same T to 4 eps (2.5 eps measured over 750 states)
        eps = np.finfo(float).eps
        bell_diagonal = (np.eye(4) + 0.6 * np.kron(SIGMA_X, SIGMA_X)
                         + delta * np.kron(SIGMA_Y, SIGMA_Y)) / 4.0
        for _ in range(40):
            u = np.kron(self._local_unitary(rng), self._local_unitary(rng))
            rho = DensityMatrix.from_matrix(u @ bell_diagonal @ u.conj().T)
            cm = correlation_matrix(rho)
            want = np.linalg.svd(cm.t, compute_uv=False)
            got = measures.correlation_singular_values(cm)
            assert np.max(np.abs(got - want)) <= 4 * eps
            assert abs(teleportation_fidelity(rho).n_value - want.sum()) <= 4 * eps
            m_value = chsh_criterion(rho).m_value
            assert abs(m_value - (want[0] ** 2 + want[1] ** 2)) <= 4 * eps

    @pytest.mark.parametrize("t", [
        np.full((3, 3), np.nan),
        np.diag([np.inf, 0.0, 0.0]),
        np.ones(3),
        # within the finite range, but no correlation matrix of a state
        2.0 * np.eye(3),
        np.eye(4),
        np.eye(3, dtype=complex),
    ], ids=["nan", "inf", "one_dimensional", "beyond_the_bound", "four_by_four", "complex"])
    def test_hand_built_matrix_rejected(self, t):
        cm = measures.CorrelationMatrix(t=t)
        with pytest.raises(InputError):
            measures.correlation_singular_values(cm)
        with pytest.raises(InputError):
            fidelity_from_correlation(cm)

    def test_hand_built_matrix_checked_as_correlation_matrix_checks(self):
        # the bound, with correlation_matrix's message; a real T within it,
        # integer or float, is taken as the float T it equals
        with pytest.raises(InputError, match="exceed the physical bound of 1"):
            measures.correlation_singular_values(
                measures.CorrelationMatrix(t=np.diag([1.0 + 2e-9, 0.0, 0.0])))
        t = np.diag([1.0 + 1e-9, -0.5, 0.25])
        got = measures.correlation_singular_values(measures.CorrelationMatrix(t=t))
        assert got.tolist() == [1.0 + 1e-9, 0.5, 0.25]
        ints = measures.correlation_singular_values(
            measures.CorrelationMatrix(t=np.diag([1, -1, 0])))
        assert ints.tolist() == [1.0, 1.0, 0.0]


@st.composite
def _x_entries(draw):
    """(a, b, c, d, e) of a valid corner-free X state with real coherence:
    the family's damped state in one of the three channel modes at (p,
    theta), grid endpoints included, or a random state with trace in
    (0, 1] and a coherence of either sign."""
    if draw(st.booleans()):
        p = draw(st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0]))
        theta = draw(st.floats(0.0, math.pi / 2) | st.sampled_from([0.0, math.pi / 2]))
        return _mode_damped_x(draw(st.sampled_from(CHANNEL_MODES)), p, theta)
    diag = draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
    total = sum(diag)
    assume(total > 0.0)
    scale = draw(st.just(1.0) | st.floats(0.01, 1.0))
    a, b, d, e = (v / total * scale for v in diag)
    share = draw(st.sampled_from([-1.0, 0.0, 1.0]) | st.floats(-1.0, 1.0))
    # + 0.0: a coherence of -0.0 gives t_xx = -0.0, where the matrix holds 0.0
    return a, b, share * math.sqrt(b * d) + 0.0, d, e


class TestXStateCorrelations:
    # the sweep kernel's fidelity_ad: T of an X state is diagonal, and its
    # scalar replay has the bits of the batched trace and of the one-sided
    # sweep, which rotates nothing and reads the |t_ii|

    @settings(max_examples=300, deadline=None)
    @given(x=_x_entries())
    @example(x=(1.0, 0.0, 0.0, 0.0, 0.0))
    @example(x=(0.0, 0.5, 0.5, 0.5, 0.0))
    @example(x=(0.0, 0.5, -0.5, 0.5, 0.0))
    # t_xx = 2e-160, whose square is subnormal: sqrt(t * t) != |t|
    @example(x=(0.25, 0.25, 1e-160, 0.25, 0.25))
    def test_replay_bits(self, x):
        rho = DensityMatrix.from_matrix(oracles.x_matrix(*x))
        cm = correlation_matrix(rho)
        assert cm.t.tobytes() == np.diag(_x_correlations(*x)).tobytes()
        want_values = measures.correlation_singular_values(cm).tolist()
        assert [v.hex() for v in _x_singular_values(*x)] == [v.hex() for v in want_values]
        want = fidelity_from_correlation(cm).fidelity
        assert _x_fidelity(*x).hex() == want.hex()

    def test_rejects_like_correlation_matrix(self):
        # |t_xx| = 1.2: no valid state reaches it, so wrap the matrix
        # without the validator
        x = (0.25, 0.25, 0.6, 0.25, 0.25)
        dense = oracles.x_matrix(*x)
        rho = DensityMatrix(
            matrix=dense, normalization="unit", trace_value=1.0,
            spectrum=linalg.hermitian_eigen(dense),
        )
        with pytest.raises(InputError) as dense_route:
            correlation_matrix(rho)
        with pytest.raises(InputError) as replay:
            _x_fidelity(*x)
        assert str(replay.value) == str(dense_route.value)
        # a NaN coherence fails the bound as well (NaN > 1 + 1e-9 is
        # false); hermitian_eigen rejects NaN, so the spectrum is a finite
        # matrix's
        nan_x = (0.25, 0.25, math.nan, 0.25, 0.25)
        rho = DensityMatrix(
            matrix=oracles.x_matrix(*nan_x), normalization="unit", trace_value=1.0,
            spectrum=linalg.hermitian_eigen(dense),
        )
        with pytest.raises(InputError) as nan_route:
            correlation_matrix(rho)
        assert str(nan_route.value) == str(dense_route.value)
        with pytest.raises(InputError) as nan_replay:
            _x_fidelity(*nan_x)
        assert str(nan_replay.value) == str(dense_route.value)
        # the bound itself is inclusive
        edge = (1.0 + 1e-9) / 2.0
        assert _x_fidelity(0.25, 0.25, edge, 0.25, 0.25) > 2.0 / 3.0
        with pytest.raises(InputError):
            _x_fidelity(0.25, 0.25, math.nextafter(edge, 1.0), 0.25, 0.25)


class TestTeleportationFidelity:
    def test_family_formula(self):
        for p in np.arange(0.0, 0.25, 1e-3):
            got = teleportation_fidelity(nmems(float(p)))
            assert got.useful
            assert abs(got.fidelity - (7.0 - 4.0 * p) / 9.0) < 1e-10

    def test_maximum_at_p0(self):
        got = teleportation_fidelity(nmems(0.0))
        assert abs(got.fidelity - 7.0 / 9.0) < 1e-12

    def test_boundary_not_useful(self):
        got = teleportation_fidelity(nmems(0.25))
        assert abs(got.n_value - 1.0) < 1e-12
        assert not got.useful
        assert got.fidelity == 2.0 / 3.0

    def test_not_useful_above_boundary(self):
        for p in (0.3, 0.5, 0.75, 1.0):
            assert not teleportation_fidelity(nmems(p)).useful

    def test_bell_state_perfect(self):
        got = teleportation_fidelity(_bell_phi_plus())
        assert abs(got.fidelity - 1.0) < 1e-12
        assert abs(got.n_value - 3.0) < 1e-12

    def test_sub_normalized_rejected(self):
        with pytest.raises(InputError):
            teleportation_fidelity(nmems_ad(0.1, 0.7))


class TestCorrelationMemo:
    """The teleportation fidelity and the CHSH criterion share one set of
    correlation singular values per state, kept on the state."""

    def test_one_singular_value_sweep_per_state(self, rng, monkeypatch):
        rho = DensityMatrix.from_matrix(oracles.random_density(rng, 4))
        calls = []
        inner = linalg._singular_values

        def spy(a):
            calls.append(a)
            return inner(a)

        monkeypatch.setattr(linalg, "_singular_values", spy)
        fid = teleportation_fidelity(rho)
        chsh = chsh_criterion(rho)
        assert teleportation_fidelity(rho) == fid
        assert chsh_criterion(rho) == chsh
        assert len(calls) == 1

    def test_only_real_input_reaches_the_route(self, rng, monkeypatch):
        # T's singular values take the float route: no complex inner product
        rho = DensityMatrix.from_matrix(oracles.random_density(rng, 4))
        cm = correlation_matrix(rho)
        want = measures.correlation_singular_values(cm)

        def no_complex(x, y):
            raise AssertionError("T reached the complex route")

        monkeypatch.setattr(linalg, "_inner", no_complex)
        assert measures.correlation_singular_values(cm).tobytes() == want.tobytes()
        assert fidelity_from_correlation(cm).n_value == teleportation_fidelity(rho).n_value
        chsh_criterion(rho)

    @pytest.mark.parametrize("first", ["fidelity", "chsh"])
    def test_same_bits_as_the_correlation_matrix(self, rng, first):
        states = [DensityMatrix.from_matrix(oracles.random_density(rng, 4))
                  for _ in range(20)]
        states += [nmems(0.0), nmems(0.3), _bell_phi_plus(), _bell_psi_plus()]
        for rho in states:
            if first == "chsh":
                chsh = chsh_criterion(rho)
                fid = teleportation_fidelity(rho)
            else:
                fid = teleportation_fidelity(rho)
                chsh = chsh_criterion(rho)
            cm = correlation_matrix(rho)
            s = measures.correlation_singular_values(cm)
            assert rho._correlation_values.tobytes() == s.tobytes()
            assert fid == fidelity_from_correlation(cm)
            assert fid.n_value.hex() == float(s.sum()).hex()
            assert chsh.m_value.hex() == float(s[0] ** 2 + s[1] ** 2).hex()

    def test_memo_is_read_only(self, rng):
        rho = DensityMatrix.from_matrix(oracles.random_density(rng, 4))
        assert rho._correlation_values is None
        chsh_criterion(rho)
        memo = rho._correlation_values
        assert not memo.flags.writeable
        with pytest.raises(ValueError):
            memo[0] = 0.0
        with pytest.raises(AttributeError):
            rho._correlation_values = None

    def test_sub_normalized_rejected_on_every_call(self):
        rho = nmems_ad(0.1, 0.7)
        for _ in range(2):
            for measure in (teleportation_fidelity, chsh_criterion):
                with pytest.raises(InputError):
                    measure(rho)
        assert rho._correlation_values is None
        # the unit-trace check comes first even once the values are kept
        measures._correlation_values(rho)
        for measure in (teleportation_fidelity, chsh_criterion):
            with pytest.raises(InputError):
                measure(rho)

    def test_distinct_states_keep_their_own(self, rng):
        m = oracles.random_density(rng, 4)
        a = DensityMatrix.from_matrix(m)
        b = DensityMatrix.from_matrix(m)
        other = DensityMatrix.from_matrix(oracles.random_density(rng, 4))
        teleportation_fidelity(a)
        assert b._correlation_values is None and other._correlation_values is None
        teleportation_fidelity(b)
        teleportation_fidelity(other)
        assert a._correlation_values is not b._correlation_values
        assert a._correlation_values.tobytes() == b._correlation_values.tobytes()
        assert other._correlation_values.tobytes() != a._correlation_values.tobytes()


class TestDampedFidelityClosedForm:
    def test_undamped_origin_value(self):
        # 11/18, NOT the 7/9 the correlation criterion yields for the same state
        assert abs(fidelity_ad_closed_form(0.0, 0.0) - 11.0 / 18.0) < 1e-12
        assert abs(teleportation_fidelity(nmems(0.0)).fidelity - 7.0 / 9.0) < 1e-12

    def test_fully_damped_floor(self):
        assert abs(fidelity_ad_closed_form(0.0, math.pi / 2) - 0.5) < 1e-12

    def test_quarter_origin_value(self):
        # 1/2 + 0.75/9 + sqrt(1.6875)/18, evaluated independently
        assert abs(fidelity_ad_closed_form(0.25, 0.0) - 0.6555021169820365) < 1e-12

    def test_matches_factored_form_on_grid(self):
        for p in np.linspace(0.0, 1.0, 21):
            for theta in np.linspace(0.0, math.pi / 2, 21):
                got = fidelity_ad_closed_form(float(p), float(theta))
                gamma = math.sin(theta) ** 2
                want = (
                    0.5
                    + (1.0 - p) * (1.0 - gamma) / 9.0
                    + (1.0 - gamma) * math.sqrt(3.0 * p * (p + 2.0)) / 18.0
                )
                assert abs(got - want) < 1e-12

    @settings(max_examples=300, deadline=None)
    @given(p=st.floats(0.0, 1.0), theta=st.floats(0.0, math.pi / 2))
    @example(p=0.17, theta=1.5668693359779096)
    @example(p=1.0 - 1e-8, theta=0.0)
    @example(p=0.99999, theta=1.0)
    @example(p=0.5, theta=math.pi / 2 - 1e-6)
    def test_defined_on_the_whole_domain(self, p, theta):
        # the factored form, grouped otherwise: 0.5 eps measured over
        # 300,000 random points.  The long radical form was 6.0e-11 off at
        # p = 1 - 1e-8, theta = 0, near a zero radicand; the factored form
        # has none
        got = fidelity_ad_closed_form(p, theta)
        gamma = math.sin(theta) ** 2
        want = 0.5 + (1.0 - gamma) * (2.0 * (1.0 - p) + math.sqrt(3.0 * p * (p + 2.0))) / 18.0
        assert abs(got - want) <= FACTORED_C * EPS

    def test_three_forms_agree_on_the_whole_domain(self):
        # FIDELITY_CF_SHA256's 201 x 201 grid, p = 1 and theta = pi/2
        # included.  The column, Horodecki's fidelity on the spin-flip
        # singular values of the closed_form damped state (the slip behind
        # criterion 10) and the paper's long radical form: 0.5 eps measured
        # between the first two, and the long form within 0.13 eps of its
        # rounding bound
        grid_p = _grid(0.0, 1.0, 201)
        grid_theta = _grid(0.0, math.pi / 2.0, 201)
        for p in grid_p:
            for theta in grid_theta:
                got = fidelity_ad_closed_form(p, theta)
                spin_flip = oracles.spin_flip_fidelity(*oracles.damped_family_x(p, theta))
                assert abs(got - spin_flip) <= SPIN_FLIP_C * EPS, (p, theta)
                long_form, bound = oracles.closed_form_fidelity_long(p, theta)
                assert abs(got - long_form) <= bound + LONG_FORM_C * EPS, (p, theta)

    def test_range_rejected(self):
        with pytest.raises(InputError):
            fidelity_ad_closed_form(-0.1, 0.0)
        with pytest.raises(InputError):
            fidelity_ad_closed_form(0.1, 2.0)


class TestEntropy:
    def test_pure_state_zero(self):
        assert von_neumann_entropy(_bell_psi_plus()) < 1e-12

    def test_maximally_mixed_two_bits(self):
        assert abs(von_neumann_entropy(MAX_MIXED) - 2.0) < 1e-12

    def test_family_p0(self):
        got = von_neumann_entropy(nmems(0.0))
        assert abs(got - 0.9182958340544896) < 1e-12

    def test_family_closed_form_spectrum(self):
        for p in np.linspace(0.0, 1.0, 41):
            got = von_neumann_entropy(nmems(float(p)))
            assert abs(got - oracles.family_entropy(float(p))) < 1e-12

    def test_bounded_for_random_states(self, rng):
        for _ in range(50):
            s = von_neumann_entropy(
                DensityMatrix.from_matrix(oracles.random_density(rng, 4))
            )
            assert 0.0 <= s <= 2.0 + 1e-12

    def test_sub_normalized_raw_vs_rescaled(self):
        state = nmems_ad(0.0, math.pi / 4)
        raw = von_neumann_entropy(state)
        rescaled = von_neumann_entropy(state.renormalized())
        assert abs(raw - (2.0 / 3.0) * math.log2(3.0)) < 1e-12
        assert abs(rescaled - 1.0) < 1e-12

    def test_spectrum_entropy_adds_left_to_right(self, monkeypatch):
        # builtin sum compensates float sums from Python 3.12 on; fsum
        # stands in for it here.  On the fig3 spectrum at p = 0,
        # theta = pi/180 a compensated sum gives ...814
        monkeypatch.setattr(_xcore, "sum", math.fsum, raising=False)
        vals = [0.6664636090063651, 0.3333333333333333, 3.0814879110195774e-33, 0.0]
        assert _spectrum_entropy(vals).hex() == (0.9184699585983813).hex()


class TestMidAdc:
    def test_zero_angle_is_zero(self):
        for p in np.linspace(0.0, 1.0, 21):
            assert mid_adc(float(p), 0.0) == 0.0

    def test_quarter_turn_value_at_p0(self):
        gamma = math.sin(math.pi / 4) ** 2
        want = oracles.damped_entropy(0.0, gamma) - oracles.family_entropy(0.0)
        got = mid_adc(0.0, math.pi / 4)
        assert abs(got - want) < 1e-12
        assert abs(got - 0.1383458330929479) < 1e-12

    def test_matches_spectra_oracle_on_grid(self):
        for p in np.linspace(0.0, 1.0, 11):
            for theta in np.linspace(0.0, math.pi / 2, 11):
                gamma = math.sin(theta) ** 2
                want = oracles.damped_entropy(float(p), gamma) - oracles.family_entropy(
                    float(p)
                )
                assert abs(mid_adc(float(p), float(theta)) - want) < 1e-12

    def test_raw_grid_maximum_sits_inside_the_angle_range(self):
        # Along the p = 0 row of the default 46-angle grid the raw-spectrum
        # disturbance peaks at theta ~ 0.7330, NOT at the theta = pi/4
        # corner: the corner is not even a local maximum in theta.  That the
        # p = 0 row holds the maximum of the whole 293 x 46 grid is
        # acceptance criterion 11.
        thetas = np.linspace(0.0, math.pi / 4, 46)
        value, theta_at = max((mid_adc(0.0, float(t)), float(t)) for t in thetas)
        assert abs(theta_at - 0.7330382858376184) < 1e-12
        assert abs(value - 0.14076267236000062) < 1e-10
        corner = mid_adc(0.0, float(thetas[-1]))
        assert value > corner + 2e-3

    def test_normalized_variant_peaks_at_the_corner(self):
        # rescaling the damped spectrum to unit trace moves the maximum to
        # the (p = 0, theta = pi/4) grid corner
        def renormalized_mid(p, theta):
            damped = nmems_ad(p, theta).renormalized()
            return von_neumann_entropy(damped) - von_neumann_entropy(nmems(p))

        thetas = np.linspace(0.0, math.pi / 4, 46)
        ps = np.linspace(0.0, 0.292, 293)
        corner = renormalized_mid(0.0, float(thetas[-1]))
        for p in ps[::4]:
            for t in thetas:
                assert renormalized_mid(float(p), float(t)) <= corner + 1e-12


class TestMidDephasing:
    def test_diagonal_state_is_classical(self):
        rho = DensityMatrix.from_matrix(np.diag([0.4, 0.3, 0.2, 0.1]))
        assert abs(mid_dephasing(rho)) < 1e-12

    def test_bell_state_one_bit(self):
        assert abs(mid_dephasing(_bell_psi_plus()) - 1.0) < 1e-10

    def test_family_dephases_to_its_diagonal(self):
        for p in (0.05, 0.15, 0.25):
            state = nmems(p)
            want = oracles.entropy_of(np.diag(state.matrix).real) - von_neumann_entropy(
                state
            )
            assert abs(mid_dephasing(state) - want) < 1e-12

    def test_sub_normalized_rejected(self):
        with pytest.raises(InputError):
            mid_dephasing(nmems_ad(0.0, 0.3))

    def test_marginal_traces_same_bits_as_einsum(self, rng, monkeypatch):
        # the marginals are taken by ndarray.trace over the traced pair of
        # axes, with the bits of np.einsum("acbc->ab") and ("abac->bc"), signed
        # zeros and subnormals included; so is the whole measure, against
        # the einsum and np.diag route
        edges = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, 0.5, -0.5, 1.0])
        for _ in range(4000):
            tensor = (rng.choice(edges, (2, 2, 2, 2))
                      + 1j * rng.choice(edges, (2, 2, 2, 2)))
            assert (tensor.trace(axis1=1, axis2=3).tobytes()
                    == np.einsum("acbc->ab", tensor).tobytes())
            assert (tensor.trace(axis1=0, axis2=2).tobytes()
                    == np.einsum("abac->bc", tensor).tobytes())

        def einsum_route(rho):
            tensor = rho.matrix.reshape(2, 2, 2, 2)
            basis_a = measures._marginal_basis(np.einsum("acbc->ab", tensor))
            basis_b = measures._marginal_basis(np.einsum("abac->bc", tensor))
            u = linalg._kron_pairs(basis_a, basis_b)
            rotated = u.conj().T @ rho.matrix @ u
            return (measures._spectrum_entropy(np.diag(rotated).real.tolist())
                    - von_neumann_entropy(rho))

        real = oracles.random_density(rng, 4).real
        states = [DensityMatrix.from_matrix(oracles.random_density(rng, 4))
                  for _ in range(300)]
        states += [DensityMatrix.from_matrix(m) for m in (
            real + 1j * np.full((4, 4), -0.0), oracles.random_x_state(rng),
            np.diag([0.4, 0.3, 0.2, 0.1]), np.diag([1.0, 0.0, -0.0, 5e-324]))]
        states += [nmems(0.1), _bell_psi_plus(), MAX_MIXED, PURE_00]
        marginals = []
        inner = measures._marginal_basis

        def spy(marginal):
            marginals.append(marginal)
            return inner(marginal)

        for rho in states:
            want = einsum_route(rho)
            monkeypatch.setattr(measures, "_marginal_basis", spy)
            assert mid_dephasing(rho).hex() == want.hex()
            monkeypatch.setattr(measures, "_marginal_basis", inner)
            tensor = rho.matrix.reshape(2, 2, 2, 2)
            got_a, got_b = marginals[-2:]
            assert got_a.tobytes() == np.einsum("acbc->ab", tensor).tobytes()
            assert got_b.tobytes() == np.einsum("abac->bc", tensor).tobytes()

    def test_same_bits_as_the_validated_marginal_route(self, rng, monkeypatch):
        # the marginals go straight to _jacobi; before, hermitian_eigen
        # checked and symmetrized them first, which must change no bit
        def validated_basis(marginal):
            spec = linalg.hermitian_eigen(marginal)
            if abs(spec.eigenvalues[0] - spec.eigenvalues[1]) < 1e-10:
                return np.eye(2, dtype=complex)
            return spec.eigenvectors

        dense = [oracles.random_density(rng, 4) for _ in range(200)]
        real = oracles.random_density(rng, 4).real
        states = [DensityMatrix.from_matrix(m) for m in dense + [
            real + 1j * np.full((4, 4), -0.0),
            oracles.random_x_state(rng),
            np.diag([0.4, 0.3, 0.2, 0.1]),
        ]] + [nmems(0.1), _bell_psi_plus()]
        for rho in states:
            tensor = rho.matrix.reshape(2, 2, 2, 2)
            for marginal in (np.einsum("acbc->ab", tensor), np.einsum("abac->bc", tensor)):
                assert linalg._hermitian_part(marginal).tobytes() == marginal.tobytes()
        got = [mid_dephasing(rho).hex() for rho in states]
        monkeypatch.setattr(measures, "_marginal_basis", validated_basis)
        assert got == [mid_dephasing(rho).hex() for rho in states]


class TestDiscordX:
    def test_family_p0_breakdown(self):
        b = discord_x(nmems(0.0))
        assert abs(b.q1 - oracles.family_q1(0.0)) < 1e-12
        assert abs(b.q2 - 2.0 / 3.0) < 1e-12
        assert b.discord == min(b.q1, b.q2)
        assert abs(b.discord - 0.5500477595827576) < 1e-12
        # the minimum comes from the spectral branch:
        # H(2/3) - S(rho) + H(1/2 + sqrt(5)/6)
        explicit = (
            oracles.binary_entropy(2.0 / 3.0)
            - oracles.family_entropy(0.0)
            + oracles.binary_entropy(0.5 + math.sqrt(5.0) / 6.0)
        )
        assert abs(b.q1 - explicit) < 1e-12

    def test_matches_family_branch_oracles(self):
        for p in np.linspace(0.0, 1.0, 51):
            b = discord_x(nmems(float(p)))
            assert abs(b.q1 - oracles.family_q1(float(p))) < 1e-12
            assert abs(b.q2 - oracles.family_q2(float(p))) < 1e-12

    def test_matches_brute_force_minimum(self):
        # the two-branch formula against a direct search over projective
        # measurements on either qubit (the family is swap-symmetric)
        for p in np.linspace(0.0, 1.0, 11).tolist():
            want = discord_x(nmems(p)).discord
            for measured in (0, 1):
                got = oracles.brute_discord(oracles.family_matrix(p), measured)
                assert abs(got - want) < 1e-12, (p, measured)

    def test_matches_brute_force_on_product_images(self):
        # the unit-trace images of independent per-qubit damping, the
        # damped states discord_x accepts, measured on either qubit
        for p in np.linspace(0.0, 1.0, 6).tolist():
            base = nmems(p)
            for theta in (0.3, 0.7, 1.1, math.pi / 2):
                rho = apply_product_pair(adc(math.sin(theta) ** 2), base)
                assert rho.is_unit()
                want = discord_x(rho).discord
                for measured in (0, 1):
                    got = oracles.brute_discord(rho.matrix, measured)
                    assert abs(got - want) < 1e-12, (p, theta, measured)

    def test_eigenvalues_descending_and_normalized(self):
        b = discord_x(nmems(0.17))
        assert np.all(np.diff(b.eigenvalues) <= 0.0)
        assert abs(b.eigenvalues.sum() - 1.0) < 1e-10

    def test_classical_product_state_zero(self):
        m = np.zeros((4, 4))
        m[0, 0] = 1.0
        assert abs(discord_x(DensityMatrix.from_matrix(m)).discord) < 1e-12

    def test_d1_at_p1_is_one_bit(self):
        assert abs(discord_x(nmems(1.0)).d1 - 1.0) < 1e-12

    def test_crossing_with_concurrence_bracketed(self):
        gaps = []
        for p in np.linspace(0.0, 0.08, 81):
            state = nmems(float(p))
            gaps.append(
                (p, discord_x(state).discord - concurrence_x(x_params_of(state)))
            )
        crossings = [
            (a[0], b[0]) for a, b in zip(gaps, gaps[1:]) if a[1] < 0.0 <= b[1]
        ]
        assert len(crossings) == 1
        lo, hi = crossings[0]
        assert 0.05 <= lo < hi <= 0.08

    def test_strictly_decreasing_on_figure_range(self):
        values = [
            discord_x(nmems(float(p))).discord for p in np.linspace(0.0, 0.291, 292)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_ordering_against_concurrence(self):
        for p in np.linspace(0.0, 0.05, 11):
            state = nmems(float(p))
            assert concurrence_x(x_params_of(state)) > discord_x(state).discord
        for p in np.linspace(0.08, 0.29, 43):
            state = nmems(float(p))
            assert concurrence_x(x_params_of(state)) < discord_x(state).discord

    def test_corner_coherence_allowed(self):
        m = np.diag([0.35, 0.25, 0.25, 0.15]).astype(complex)
        m[0, 3] = m[3, 0] = 0.1
        b = discord_x(DensityMatrix.from_matrix(m))
        assert b.discord >= 0.0

    def test_non_x_rejected(self):
        m = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        m[0, 1] = m[1, 0] = 0.05
        with pytest.raises(InputError):
            discord_x(DensityMatrix.from_matrix(m))

    def test_sub_normalized_rejected(self):
        with pytest.raises(InputError):
            discord_x(nmems_ad(0.0, 0.4))


class TestDiscordClosedForm:
    def test_substitution_anchors(self):
        # at p = 0 the spectral pair is 1/2 +- sqrt(5)/6; at p = 1 both
        # collapse to 1/2 and the spectral-branch entropy piece is H(1/2) = 1
        t1 = 0.5 + math.sqrt(5.0) / 6.0
        assert abs(discord_x(nmems(0.0)).d1 - oracles.binary_entropy(t1)) < 1e-12
        assert abs(discord_x(nmems(1.0)).d1 - 1.0) < 1e-12

    def test_residuals_match_their_derived_form(self):
        # the single-variable branches differ from the matrix route by
        # exactly the terms where a logarithm is flattened to its argument:
        #   plain branch - Q2 = x log2 x - x^2/ln 2,            x = (p+2)/6
        #   spectral branch - Q1 = [t log2 t - t^2/ln 2]
        #                        + [p^2/(2 ln 2) - r log2 r],   t = (4-p)/6, r = p/2
        for p in np.linspace(0.0, 1.0, 21):
            res_spectral, res_plain = discord_closed_form_residuals(float(p))
            x = (p + 2.0) / 6.0
            t = (4.0 - p) / 6.0
            r = p / 2.0
            want_plain = oracles.xlog2x(x) - x * x / LN2
            want_spectral = (
                oracles.xlog2x(t) - t * t / LN2
                + p * p / (2.0 * LN2) - oracles.xlog2x(r)
            )
            assert abs(res_plain - want_plain) < 1e-12
            assert abs(res_spectral - want_spectral) < 1e-12

    def test_three_slips_are_the_whole_gap(self):
        # replace each printed product by the x ln x it stands for, and the
        # paper's branches are discord_x's: plain -(p+2)x/6 -> -x ln x;
        # spectral (p-4)t/6 -> -t ln t and p r -> r ln r.  3.75 eps measured
        for p in _grid(0.0, 1.0, 1001):
            spectral, plain = discord_closed_form_branches(p)
            x = (p + 2.0) / 6.0
            t = (4.0 - p) / 6.0
            r = p / 2.0
            plain += (p + 2.0) * x / (6.0 * LN2) - oracles.xlog2x(x)
            spectral += (
                -(p - 4.0) * t / (6.0 * LN2) - oracles.xlog2x(t)
                - p * r / LN2 + oracles.xlog2x(r)
            )
            breakdown = discord_x(nmems(p))
            assert abs(spectral - breakdown.q1) <= DISCORD_SLIP_C * EPS, p
            assert abs(plain - breakdown.q2) <= DISCORD_SLIP_C * EPS, p
            # as printed, it is no discord
            assert discord_closed_form(p) < 0.0, p

    def test_residuals_are_genuinely_nonzero(self):
        res_spectral, res_plain = discord_closed_form_residuals(0.0)
        assert abs(res_plain) > 0.01
        assert abs(res_spectral) > 0.01

    def test_value_is_branch_minimum(self):
        for p in (0.0, 0.3, 0.77, 1.0):
            spectral, plain = discord_closed_form_branches(p)
            assert discord_closed_form(p) == min(spectral, plain)

    def test_range_rejected(self):
        with pytest.raises(InputError):
            discord_closed_form(1.2)


class TestChsh:
    def test_bell_state_maximal(self):
        got = chsh_criterion(_bell_psi_plus())
        assert abs(got.m_value - 2.0) < 1e-10
        assert got.violates

    def test_family_p0(self):
        got = chsh_criterion(nmems(0.0))
        assert abs(got.m_value - 8.0 / 9.0) < 1e-12
        assert not got.violates

    def test_never_violated_across_full_range(self):
        for p in np.linspace(0.0, 1.0, 1001):
            assert not chsh_criterion(nmems(float(p))).violates

    def test_maximally_mixed(self):
        assert chsh_criterion(MAX_MIXED).m_value < 1e-12

    def test_sub_normalized_rejected(self):
        with pytest.raises(InputError):
            chsh_criterion(nmems_ad(0.0, 0.5))


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_symmetric_peak(self):
        assert abs(binary_entropy(0.5) - 1.0) < 1e-15

    @given(x=st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_matches_oracle(self, x):
        assert abs(binary_entropy(x) - oracles.binary_entropy(x)) < 1e-12

    def test_out_of_range_rejected(self):
        # roundoff dust within 1e-9 of [0, 1] is clamped; anything beyond it
        # is rejected
        for x in (1.0 + 5e-10, -5e-10):
            assert binary_entropy(x) == 0.0
        for x in (1.5, math.nan, 1.0 + 2e-9, -2e-9):
            with pytest.raises(InputError):
                binary_entropy(x)


class TestFidelityFromCorrelation:
    def test_useless_states_report_classical_benchmark(self):
        got = fidelity_from_correlation(correlation_matrix(MAX_MIXED))
        assert got.fidelity == 2.0 / 3.0
        assert not got.useful
        # N must exceed the edge 1 + 1e-12; N at the edge is classical
        edge = measures._fidelity_of(1.0 + _xcore.USEFULNESS_MARGIN)
        assert edge.fidelity == 2.0 / 3.0
        assert not edge.useful

    def test_damped_state_general_criterion(self):
        # the general criterion applied to the closed-form damped matrix at
        # theta = 0 recovers the undamped value, unlike fidelity_ad_closed_form
        cm = correlation_matrix(nmems_ad(0.0, 0.0))
        got = fidelity_from_correlation(cm)
        assert abs(got.fidelity - 7.0 / 9.0) < 1e-12


class TestTwoQubitPrecondition:
    UNIT_TRACE_MEASURES = [
        pytest.param(teleportation_fidelity, id="teleportation_fidelity"),
        pytest.param(mid_dephasing, id="mid_dephasing"),
        pytest.param(discord_x, id="discord_x"),
        pytest.param(chsh_criterion, id="chsh_criterion"),
    ]

    @pytest.mark.parametrize(
        "measure",
        UNIT_TRACE_MEASURES
        + [pytest.param(concurrence_wootters, id="concurrence_wootters"),
           pytest.param(correlation_matrix, id="correlation_matrix")],
    )
    def test_single_qubit_state_rejected(self, measure):
        qubit = DensityMatrix.from_matrix(np.eye(2) / 2.0)
        with pytest.raises(InputError, match="is defined for two-qubit states"):
            measure(qubit)

    @pytest.mark.parametrize("measure", UNIT_TRACE_MEASURES)
    def test_sub_normalized_state_rejected(self, measure):
        with pytest.raises(InputError, match="requires a unit-trace state"):
            measure(nmems_ad(0.1, 0.6))

    def test_correlation_matrix_accepts_sub_normalized_state(self):
        t = correlation_matrix(nmems_ad(0.1, 0.6)).t
        assert t.shape == (3, 3)
