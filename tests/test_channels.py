import math
import re
import types

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nmems import InputError
from nmems._xcore import (
    _correlated_pair_x,
    _family_x,
    _product_pair_x,
    _theta_factors,
    _x_spectrum,
)
from nmems import channels
from nmems.channels import (
    adc,
    apply_correlated_pair,
    apply_product_pair,
    apply_single,
    gadc,
    kraus_channel,
)
from nmems.states import DensityMatrix, nmems, nmems_ad

import oracles

unit_floats = st.floats(0.0, 1.0, allow_nan=False)


def _qubit(k):
    m = np.zeros((2, 2), dtype=complex)
    m[k, k] = 1.0
    return DensityMatrix.from_matrix(m)


class TestAdc:
    def test_zero_damping_is_identity_channel(self):
        ch = adc(0.0)
        assert np.array_equal(ch.operators[0], np.eye(2))
        assert np.max(np.abs(ch.operators[1])) == 0.0
        assert ch.trace_preserving

    def test_full_damping_operators(self):
        ch = adc(1.0)
        assert np.allclose(ch.operators[0], np.diag([1.0, 0.0]), atol=0)
        e1 = np.zeros((2, 2), dtype=complex)
        e1[0, 1] = 1.0
        assert np.allclose(ch.operators[1], e1, atol=0)

    def test_completeness_identity(self):
        ch = adc(0.3)
        total = sum(k.conj().T @ k for k in ch.operators)
        assert np.max(np.abs(total - np.eye(2))) < 1e-15
        assert ch.trace_preserving

    def test_range_rejected(self):
        for g in (-0.1, 1.1, float("nan")):
            with pytest.raises(InputError):
                adc(g)


class TestGadc:
    def test_lambda_one_reduces_to_adc(self):
        g = gadc(0.37, 1.0)
        a = adc(0.37)
        assert np.allclose(g.operators[0], a.operators[0], atol=0)
        assert np.allclose(g.operators[1], a.operators[1], atol=0)
        assert np.max(np.abs(g.operators[2])) == 0.0
        assert np.max(np.abs(g.operators[3])) == 0.0

    def test_inverted_fixed_point_pumps_up(self):
        out = apply_single(gadc(1.0, 0.0), _qubit(0))
        assert np.allclose(out.matrix, np.diag([0.0, 1.0]), atol=1e-15)

    def test_completeness_spot(self):
        ch = gadc(0.4, 0.7)
        total = sum(k.conj().T @ k for k in ch.operators)
        assert np.max(np.abs(total - np.eye(2))) < 1e-15

    @given(gamma=unit_floats, lam=unit_floats)
    @settings(max_examples=150, deadline=None)
    def test_always_trace_preserving(self, gamma, lam):
        ch = gadc(gamma, lam)
        total = sum(k.conj().T @ k for k in ch.operators)
        assert np.max(np.abs(total - np.eye(2))) < 1e-10
        assert ch.trace_preserving

    def test_range_rejected(self):
        with pytest.raises(InputError):
            gadc(0.5, -0.2)
        with pytest.raises(InputError):
            gadc(2.0, 0.5)


class TestApplySingle:
    def test_decay_of_excited_state(self):
        out = apply_single(adc(0.3), _qubit(1))
        assert np.allclose(out.matrix, np.diag([0.3, 0.7]), atol=1e-15)

    def test_zero_damping_fixes_everything(self, rng):
        rho = DensityMatrix.from_matrix(oracles.random_density(rng, 2))
        out = apply_single(adc(0.0), rho)
        assert np.allclose(out.matrix, rho.matrix, atol=1e-15)

    def test_gadc_lambda_one_matches_adc(self, rng):
        rho = DensityMatrix.from_matrix(oracles.random_density(rng, 2))
        a = apply_single(adc(0.6), rho)
        g = apply_single(gadc(0.6, 1.0), rho)
        assert np.max(np.abs(a.matrix - g.matrix)) < 1e-14

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InputError):
            apply_single(adc(0.5), nmems(0.1))

    # cap gamma away from 1: rounding 1 - (1-g1)(1-g2) costs ~ulp(1), and
    # the channel's square root amplifies that to ulp/(2 sqrt(product));
    # keeping each survival probability >= 1e-4 bounds the identity at
    # ~1e-13, safely inside the 1e-12 assertion (gamma = 1 exactly is
    # covered by the endpoint test below)
    @given(
        g1=st.floats(0.0, 1.0 - 1e-4, allow_nan=False),
        g2=st.floats(0.0, 1.0 - 1e-4, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_damping_composes_as_semigroup(self, g1, g2):
        rho = DensityMatrix.from_matrix(
            np.array([[0.3, 0.25 - 0.1j], [0.25 + 0.1j, 0.7]], dtype=complex)
        )
        twice = apply_single(adc(g2), apply_single(adc(g1), rho))
        combined = 1.0 - (1.0 - g1) * (1.0 - g2)
        once = apply_single(adc(combined), rho)
        assert np.max(np.abs(twice.matrix - once.matrix)) < 1e-12

    def test_full_damping_composes_exactly(self):
        rho = DensityMatrix.from_matrix(
            np.array([[0.3, 0.25 - 0.1j], [0.25 + 0.1j, 0.7]], dtype=complex)
        )
        twice = apply_single(adc(1.0), apply_single(adc(0.5), rho))
        once = apply_single(adc(1.0), rho)
        assert np.max(np.abs(twice.matrix - once.matrix)) == 0.0
        assert np.allclose(once.matrix, np.diag([1.0, 0.0]), atol=1e-15)


class TestCorrelatedPair:
    def test_zero_damping_is_identity(self):
        rho = nmems(0.4)
        out = apply_correlated_pair(adc(0.0), rho)
        assert np.allclose(out.matrix, rho.matrix, atol=1e-15)

    def test_gap_to_closed_form_is_corner_term(self):
        # the correlated map output exceeds the closed-form damped matrix by
        # exactly gamma^2 (p/2) |00><00|
        for p in np.linspace(0.0, 1.0, 11):
            for theta in np.linspace(0.0, math.pi / 2, 11):
                gamma = math.sin(theta) ** 2
                got = apply_correlated_pair(adc(gamma), nmems(float(p)))
                diff = got.matrix - nmems_ad(float(p), float(theta)).matrix
                expected = np.zeros((4, 4))
                expected[0, 0] = gamma * gamma * p / 2.0
                assert np.max(np.abs(diff - expected)) < 1e-12

    def test_exact_match_at_p0(self):
        theta = 0.9
        got = apply_correlated_pair(adc(math.sin(theta) ** 2), nmems(0.0))
        assert np.max(np.abs(got.matrix - nmems_ad(0.0, theta).matrix)) < 1e-15

    def test_drains_trace(self):
        out = apply_correlated_pair(adc(0.5), nmems(0.0))
        assert out.normalization == "sub_normalized"
        assert abs(out.trace_value - 2.0 / 3.0) < 1e-12

    def test_four_operator_channel_rejected(self):
        with pytest.raises(InputError):
            apply_correlated_pair(gadc(0.5, 0.5), nmems(0.1))

    def test_single_qubit_state_rejected(self):
        with pytest.raises(InputError):
            apply_correlated_pair(adc(0.5), _qubit(0))


class TestProductPair:
    def test_zero_damping_is_identity(self):
        rho = nmems(0.2)
        out = apply_product_pair(adc(0.0), rho)
        assert np.allclose(out.matrix, rho.matrix, atol=1e-15)

    def test_full_damping_lands_on_ground(self, rng):
        rho = DensityMatrix.from_matrix(oracles.random_density(rng, 4))
        out = apply_product_pair(adc(1.0), rho)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.max(np.abs(out.matrix - expected)) < 1e-12

    def test_keeps_unit_trace_unlike_correlated(self):
        product = apply_product_pair(adc(0.5), nmems(0.0))
        correlated = apply_correlated_pair(adc(0.5), nmems(0.0))
        assert product.normalization == "unit"
        assert abs(product.trace_value - 1.0) < 1e-12
        assert abs(correlated.trace_value - 2.0 / 3.0) < 1e-12

    def test_preserves_trace_and_positivity(self, rng):
        for _ in range(25):
            gamma = float(rng.random())
            rho = DensityMatrix.from_matrix(oracles.random_density(rng, 4))
            out = apply_product_pair(adc(gamma), rho)
            assert abs(out.trace_value - 1.0) < 1e-12
            assert float(out.spectrum.eigenvalues.min()) >= -1e-10

    def test_gadc_product_preserves_trace(self, rng):
        rho = DensityMatrix.from_matrix(oracles.random_density(rng, 4))
        out = apply_product_pair(gadc(0.3, 0.6), rho)
        assert abs(out.trace_value - 1.0) < 1e-12


class TestKrausChannelValidation:
    def test_mixed_shapes_rejected(self):
        with pytest.raises(InputError):
            kraus_channel((np.eye(2), np.eye(3)), "bad")

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            kraus_channel((), "empty")

    def test_non_trace_preserving_flagged(self):
        half = kraus_channel((np.eye(2) * 0.5,), "half")
        assert not half.trace_preserving

    def test_complex_operators_flagged_by_their_adjoints(self):
        # sum_k K_k^dagger K_k = 1 for I / sqrt 2 and sigma_y / sqrt 2, while
        # sum_k K_k^T K_k = 0: the check must conjugate
        sy = np.array([[0.0, -1j], [1j, 0.0]])
        ch = kraus_channel((np.eye(2) / math.sqrt(2.0), sy / math.sqrt(2.0)), "dephase-y")
        assert ch.trace_preserving

    def test_non_square_rejected(self):
        with pytest.raises(InputError, match="must be square"):
            kraus_channel((np.ones((2, 3)),), "wide")

    def test_operators_read_only(self):
        ch = adc(0.2)
        with pytest.raises(ValueError):
            ch.operators[0][0, 0] = 5.0

    def test_operators_copied(self):
        # the channel keeps its own copy: writing to the caller's arrays
        # afterwards leaves it unchanged
        stack = np.array([np.eye(2), np.zeros((2, 2))], dtype=complex)
        listed = [np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)]
        for ops in (stack, listed):
            ch = kraus_channel(ops, "copy")
            ops[0][0, 0] = 5.0
            ops[1][0, 1] = 1.0
            assert np.array_equal(ch.operators[0], np.eye(2))
            assert np.array_equal(ch.operators[1], np.zeros((2, 2)))
            assert ch.trace_preserving


class TestBuiltChannelsValidateOnce:
    """``adc`` and ``gadc`` skip ``kraus_channel``'s per-operator checks on
    the stacks they build; the channel must be the one it would give."""

    @settings(max_examples=100, deadline=None)
    @given(gamma=unit_floats, lam=unit_floats)
    @example(gamma=0.0, lam=0.0)
    @example(gamma=1.0, lam=1.0)
    def test_same_channel_as_kraus_channel(self, gamma, lam):
        sg, cg = math.sqrt(gamma), math.sqrt(1.0 - gamma)
        sl, cl = math.sqrt(lam), math.sqrt(1.0 - lam)
        cases = (
            (adc(gamma), [[[1.0, 0.0], [0.0, cg]], [[0.0, sg], [0.0, 0.0]]]),
            (gadc(gamma, lam), [[[sl, 0.0], [0.0, sl * cg]], [[0.0, sl * sg], [0.0, 0.0]],
                                [[cl * cg, 0.0], [0.0, cl]], [[0.0, 0.0], [cl * sg, 0.0]]]),
        )
        for got, ops in cases:
            want = kraus_channel([np.array(k, dtype=complex) for k in ops], got.label)
            assert np.array(got.operators).tobytes() == np.array(want.operators).tobytes()
            assert got.trace_preserving is want.trace_preserving is True
            assert all(not k.flags.writeable for k in got.operators)
        assert cases[0][0].label == f"adc(gamma={gamma:g})"
        assert cases[1][0].label == f"gadc(gamma={gamma:g}, lambda={lam:g})"


def _kraus_stack(rng, k: int) -> np.ndarray:
    """A (k, 4, 4) complex stack with signed-zero, subnormal and tiny
    entries among ordinary ones."""
    ops = rng.standard_normal((k, 4, 4)) + 1j * rng.standard_normal((k, 4, 4))
    ops.real[rng.random(ops.shape) < 0.2] = 0.0
    ops.real[rng.random(ops.shape) < 0.2] = -0.0
    ops.imag[rng.random(ops.shape) < 0.2] = -0.0
    ops[rng.random(ops.shape) < 0.2] *= 1e-160
    ops[rng.random(ops.shape) < 0.1] *= 5e-324
    return ops


def _matrix_with_edges(rng) -> np.ndarray:
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m.real[rng.random((4, 4)) < 0.3] = -0.0
    m.imag[rng.random((4, 4)) < 0.3] = -0.0
    m[rng.random((4, 4)) < 0.2] *= 1e-300
    return m


class TestKrausReduction:
    """``_kraus_sum`` adds its terms K rho K^dagger by one reduction over the
    stack, with the bits of adding them to zeros one at a time in order."""

    @staticmethod
    def _sum_taken(monkeypatch, operators, matrix) -> np.ndarray:
        """The sum ``_kraus_sum`` hands to the state validator."""
        taken = []
        monkeypatch.setattr(channels.DensityMatrix, "from_matrix", taken.append)
        channels._kraus_sum(operators, types.SimpleNamespace(matrix=matrix))
        (total,) = taken
        return total

    @staticmethod
    def _in_place(operators, matrix) -> np.ndarray:
        terms = operators @ matrix @ operators.conj().transpose(0, 2, 1)
        out = np.zeros_like(matrix)
        for term in terms:
            out += term
        return out

    @pytest.mark.parametrize("k", [1, 2, 4, 16])
    def test_same_bits_as_in_place_adds(self, rng, monkeypatch, k):
        subnormals = False
        for i in range(200):
            # every fourth stack is scaled so that its whole sum is subnormal
            ops = _kraus_stack(rng, k) * (1e-161 if i % 4 == 0 else 1.0)
            matrix = _matrix_with_edges(rng)
            want = self._in_place(ops, matrix)
            got = self._sum_taken(monkeypatch, ops, matrix)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            parts = np.abs(np.concatenate([want.real.ravel(), want.imag.ravel()]))
            subnormals |= bool(((parts != 0.0) & (parts < 2.2250738585072014e-308)).any())
        # the sums reach the subnormal range; whether the products leave a
        # signed zero in a term depends on the BLAS kernel, and a sum from
        # 0j turns one into +0.0 either way
        assert subnormals

    def test_terms_added_in_stack_order(self, monkeypatch):
        # 1 + x rounds back to 1 for x just under half an ulp: added in stack
        # order the fifteen small terms vanish one by one, where a pairwise
        # or reordered sum would keep about 13 x
        small = math.sqrt(0.9 * 2.0 ** -53)
        ops = np.array([np.eye(4)] + [small * np.eye(4)] * 15, dtype=complex)
        matrix = np.eye(4, dtype=complex)
        got = self._sum_taken(monkeypatch, ops, matrix)
        assert got.tobytes() == self._in_place(ops, matrix).tobytes()
        assert np.array_equal(got, np.eye(4))


def _product_pairs(ops):
    return [np.kron(ki, kj) for ki in ops for kj in ops]


def _correlated_pairs(ops):
    return [np.kron(k, k) for k in ops]


class TestPairOperatorsOncePerChannel:
    @pytest.mark.parametrize(
        "apply,pairs,ch",
        [
            pytest.param(apply_product_pair, _product_pairs, adc(0.3), id="product-adc"),
            pytest.param(apply_product_pair, _product_pairs, gadc(0.4, 0.7), id="product-gadc"),
            *(
                pytest.param(apply_product_pair, _product_pairs, gadc(gamma, lam),
                             id=f"product-gadc-{gamma:g}-{lam:g}")
                for gamma in (0.0, 1.0) for lam in (0.0, 1.0)
            ),
            pytest.param(apply_correlated_pair, _correlated_pairs, adc(0.3),
                         id="correlated-adc"),
            *(
                pytest.param(apply_correlated_pair, _correlated_pairs, adc(gamma),
                             id=f"correlated-adc-{gamma:g}")
                for gamma in (0.0, 1.0)
            ),
        ],
    )
    def test_same_bits_and_kron_once(self, apply, pairs, ch, rng):
        # dense states, and X states with exact zeros: the family at its
        # ends, a pure product state, and random corner-free X states
        states = [oracles.random_density(rng, 4) for _ in range(20)]
        states += [oracles.random_x_state(rng) for _ in range(5)]
        states += [oracles.family_matrix(p) for p in (0.0, 0.5, 1.0)]
        states += [np.diag([1.0, 0.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0, 0.0]),
                   np.diag([0.0, 0.0, 0.0, 1.0])]
        for m in states:
            rho = DensityMatrix.from_matrix(m)
            # the pair-map sum with fresh Kronecker products, in the map's
            # order, one term at a time
            out = np.zeros_like(rho.matrix)
            for k in pairs(ch.operators):
                out = out + k @ rho.matrix @ k.conj().T
            try:
                want = DensityMatrix.from_matrix(out)
            except InputError as exc:
                # the correlated map can drain all trace: the route rejects
                # its image with the same message
                with pytest.raises(InputError, match=re.escape(str(exc))):
                    apply(ch, rho)
                continue
            got = apply(ch, rho)
            assert got.matrix.tobytes() == want.matrix.tobytes()
            assert got.spectrum.eigenvalues.tobytes() == want.spectrum.eigenvalues.tobytes()
            assert got.spectrum.eigenvectors.tobytes() == want.spectrum.eigenvectors.tobytes()


@st.composite
def _x_entries(draw):
    """(a, b, c, d, e) of a valid corner-free X state with entries >= +0.0,
    as the Kraus images take them, and trace in (0, 1]: a family state, or a
    random one with zero and full coherences and unit trace among them."""
    if draw(st.booleans()):
        return _family_x(draw(st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0])))
    diag = draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
    total = sum(diag)
    assume(total > 0.0)
    scale = draw(st.just(1.0) | st.floats(0.01, 1.0))
    a, b, d, e = (v / total * scale for v in diag)
    share = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    return a, b, share * math.sqrt(b * d), d, e


class TestPairImagesFromFiveNumbers:
    # the sweep kernel's Kraus images: the five numbers _correlated_pair_x
    # and _product_pair_x give are the stored matrix apply_*_pair builds,
    # bit for bit, zeros included

    @settings(max_examples=300, deadline=None)
    @given(
        x=_x_entries(),
        theta=st.floats(0.0, math.pi / 2) | st.sampled_from([0.0, math.pi / 2]),
        correlated=st.booleans(),
    )
    @example(x=_family_x(0.0), theta=math.pi / 2, correlated=False)
    @example(x=_family_x(1.0), theta=math.pi / 2, correlated=True)
    @example(x=_family_x(1.0), theta=0.0, correlated=False)
    @example(x=_family_x(0.3), theta=math.pi / 2, correlated=True)
    def test_image_bits(self, x, theta, correlated):
        # theta in [0, pi/2], the only way the sweep reaches gamma
        apply = apply_correlated_pair if correlated else apply_product_pair
        pair_x = _correlated_pair_x if correlated else _product_pair_x
        got = pair_x(x, _theta_factors(theta))
        try:
            image = apply(adc(math.sin(theta) ** 2),
                          DensityMatrix.from_matrix(oracles.x_matrix(*x)))
        except InputError as exc:
            # the correlated map can drain all trace: the kernel's checks
            # reject the five numbers with the same message
            with pytest.raises(InputError) as kernel:
                _x_spectrum(*got)
            assert str(kernel.value) == str(exc)
            return
        assert oracles.x_matrix(*got).tobytes() == image.matrix.tobytes()
