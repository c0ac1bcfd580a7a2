import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmems import InputError
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

    def test_operators_read_only(self):
        ch = adc(0.2)
        with pytest.raises(ValueError):
            ch.operators[0][0, 0] = 5.0


class TestPairOperatorsOncePerChannel:
    @pytest.mark.parametrize(
        "apply,pairs,ch",
        [
            pytest.param(
                apply_product_pair,
                lambda ops: [np.kron(ki, kj) for ki in ops for kj in ops],
                adc(0.3),
                id="product-adc",
            ),
            pytest.param(
                apply_product_pair,
                lambda ops: [np.kron(ki, kj) for ki in ops for kj in ops],
                gadc(0.4, 0.7),
                id="product-gadc",
            ),
            pytest.param(
                apply_correlated_pair,
                lambda ops: [np.kron(k, k) for k in ops],
                adc(0.3),
                id="correlated-adc",
            ),
        ],
    )
    def test_same_bits_and_kron_once(self, apply, pairs, ch, rng, monkeypatch):
        rho = DensityMatrix.from_matrix(oracles.random_density(rng, 4))
        # the pair-map sum with fresh Kronecker products, in the map's order
        out = np.zeros_like(rho.matrix)
        for k in pairs(ch.operators):
            out = out + k @ rho.matrix @ k.conj().T
        want = DensityMatrix.from_matrix(out)
        first = apply(ch, rho)
        monkeypatch.setattr(np, "kron", None)
        second = apply(ch, rho)
        for got in (first, second):
            assert got.matrix.tobytes() == want.matrix.tobytes()
            assert got.spectrum.eigenvectors.tobytes() == want.spectrum.eigenvectors.tobytes()

    def test_pair_operators_read_only(self):
        ch = adc(0.2)
        apply_product_pair(ch, nmems(0.1))
        apply_correlated_pair(ch, nmems(0.1))
        for k in ch._product_pair_ops + ch._correlated_pair_ops:
            with pytest.raises(ValueError):
                k[0, 0] = 5.0
