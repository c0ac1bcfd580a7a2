import math

import numpy as np
import pytest

from nmems import InputError
from nmems import linalg
from nmems.measures import teleportation_fidelity
from nmems.states import DensityMatrix, nmems
from nmems.witnesses import (
    evaluate,
    witness_generic,
    witness_stabilizer,
    witness_w1,
)

P_GRID = np.linspace(0.0, 1.0, 1001)

MAX_MIXED = DensityMatrix.from_matrix(np.eye(4) / 4.0)


def _basis_state(k):
    m = np.zeros((4, 4), dtype=complex)
    m[k, k] = 1.0
    return DensityMatrix.from_matrix(m)


class TestGenericWitness:
    def test_d2_matrix(self):
        w = witness_generic(2).matrix
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = expected[2, 2] = 0.5
        expected[0, 3] = expected[3, 0] = -0.5
        assert np.allclose(w, expected, atol=1e-15)

    def test_maximally_mixed_not_detected(self):
        verdict = evaluate(witness_generic(2), MAX_MIXED)
        assert abs(verdict.expectation - 0.25) < 1e-14
        assert not verdict.detected

    def test_family_expectation_formula(self):
        w = witness_generic(2)
        for p in P_GRID:
            got = evaluate(w, nmems(float(p))).expectation
            assert abs(got - (1.0 - p) / 3.0) < 1e-12

    def test_family_never_detected(self):
        # this witness cannot certify the family: (1-p)/3 >= 0 everywhere
        w = witness_generic(2)
        assert all(not evaluate(w, nmems(float(p))).detected for p in P_GRID)

    def test_midpoint_value(self):
        assert abs(evaluate(witness_generic(2), nmems(0.5)).expectation - 1 / 6) < 1e-14

    def test_small_d_rejected(self):
        # and any d that is not an integer, rather than truncating it
        for d in (1, 2.7, "3"):
            with pytest.raises(InputError):
                witness_generic(d)

    def test_d3_is_hermitian_with_negative_eigenvalue(self):
        w = witness_generic(3)
        assert linalg.is_hermitian(w.matrix, 1e-12)
        assert linalg.hermitian_eigen(w.matrix).eigenvalues.min() < 0


class TestW1Witness:
    def test_family_expectation_formula(self):
        w = witness_w1()
        for p in P_GRID:
            got = evaluate(w, nmems(float(p))).expectation
            assert abs(got - (7.0 * p - 2.0) / 18.0) < 1e-12

    def test_zero_at_two_sevenths(self):
        assert abs(evaluate(witness_w1(), nmems(2.0 / 7.0)).expectation) < 1e-14

    def test_separable_basis_state(self):
        verdict = evaluate(witness_w1(), _basis_state(3))
        assert abs(verdict.expectation - 4.0 / 9.0) < 1e-14
        assert not verdict.detected


class TestStabilizerWitness:
    def test_matrix_form(self):
        w = witness_stabilizer().matrix
        expected = np.eye(4, dtype=complex)
        expected[1, 2] = expected[2, 1] = -2.0
        assert np.allclose(w, expected, atol=1e-15)

    def test_family_expectation_formula(self):
        w = witness_stabilizer()
        for p in P_GRID:
            got = evaluate(w, nmems(float(p))).expectation
            assert abs(got - (4.0 * p - 1.0) / 3.0) < 1e-12

    def test_detects_at_p0(self):
        verdict = evaluate(witness_stabilizer(), nmems(0.0))
        assert abs(verdict.expectation + 1.0 / 3.0) < 1e-14
        assert verdict.detected

    def test_maximally_mixed_not_detected(self):
        verdict = evaluate(witness_stabilizer(), MAX_MIXED)
        assert abs(verdict.expectation - 1.0) < 1e-14
        assert not verdict.detected


class TestEvaluate:
    def test_boundary_is_not_detected(self):
        # strict inequality: expectation exactly 0 counts as not detected
        verdict = evaluate(witness_stabilizer(), nmems(0.25))
        assert abs(verdict.expectation) < 1e-15
        assert not verdict.detected

    def test_detection_just_below_crossing(self):
        verdict = evaluate(witness_w1(), nmems(0.2))
        assert abs(verdict.expectation + 1.0 / 30.0) < 1e-14
        assert verdict.detected

    def test_dimension_mismatch_rejected(self):
        rho2 = DensityMatrix.from_matrix(np.eye(2) / 2.0)
        with pytest.raises(InputError):
            evaluate(witness_w1(), rho2)

    def test_verdict_names_witness(self):
        assert evaluate(witness_w1(), nmems(0.1)).witness_name == "w1"


class TestSignStructure:
    def test_every_witness_has_negative_eigenvalue(self):
        for w in (witness_generic(2), witness_w1(), witness_stabilizer()):
            assert linalg.hermitian_eigen(w.matrix).eigenvalues.min() < -1e-6

    def test_crossings_by_bisection(self):
        from nmems.sweep import witness_zero_crossing

        assert abs(witness_zero_crossing("w1") - 2.0 / 7.0) < 1e-9
        assert abs(witness_zero_crossing("stabilizer") - 0.25) < 1e-9

    def test_detection_windows(self):
        w1 = witness_w1()
        stab = witness_stabilizer()
        for p in np.arange(0.0, 0.25, 1e-3):
            state = nmems(float(p))
            assert evaluate(stab, state).detected
            assert teleportation_fidelity(state).useful

    def test_entangled_but_not_teleportation_useful_window(self):
        # between the two crossings the w1 witness still fires while the
        # stabilizer witness (and the fidelity criterion) have gone silent
        w1 = witness_w1()
        stab = witness_stabilizer()
        for p in np.arange(0.2505, 2.0 / 7.0 - 1e-4, 1e-3):
            state = nmems(float(p))
            assert evaluate(w1, state).detected
            assert not evaluate(stab, state).detected
            assert not teleportation_fidelity(state).useful

    def test_stabilizer_agrees_with_fidelity_criterion_everywhere(self):
        # both flip at p = 1/4: the witness fires exactly when the
        # correlation criterion certifies usefulness
        stab = witness_stabilizer()
        for p in np.linspace(0.0, 1.0, 401):
            state = nmems(float(p))
            assert evaluate(stab, state).detected == teleportation_fidelity(state).useful

    def test_blind_spot_above_w1_crossing(self):
        # the state stays entangled up to ~0.2918 but no witness here fires
        from nmems.measures import concurrence_x
        from nmems.states import x_params_of

        w1 = witness_w1()
        stab = witness_stabilizer()
        for p in np.arange(2.0 / 7.0 + 1e-4, 0.2917, 1e-3):
            state = nmems(float(p))
            assert concurrence_x(x_params_of(state)) > 0.0
            assert not evaluate(w1, state).detected
            assert not evaluate(stab, state).detected
