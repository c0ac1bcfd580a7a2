"""Scalar correlation measures for two-qubit states.

Concurrence comes in two independent routes: the closed X-state formula
2 max(|c| - sqrt(a e), 0), the sweep's own scalar function, and the
spin-flip spectrum construction, which serves as its oracle.
Teleportation quality and the CHSH criterion both derive from the 3x3
correlation matrix of Pauli-pair expectations, whose singular values are
taken once per state and kept on it.  The singular
values of T and of the spin-flip matrix K both come from the one-sided
Jacobi ``linalg._singular_values``, T's on its real columns as floats; the
eigenvalues, from the state's spectrum or, for the marginals of
``mid_dephasing``, ``linalg._jacobi``.
Quantum discord is the X-state two-branch minimum; the paper's long
single-variable closed form for the GHZ/W family ships alongside as
printed, with per-branch residuals against the matrix route reported
instead of asserted (three of its x ln x terms are printed as x * x, so
the two disagree; see discord_closed_form_branches).

All entropic quantities use log base 2, with 0 log 0 == 0.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
# the checks and scalar forms of the measures that the matrix route below
# shares; the public ones among them are re-exported here
from ._xcore import (
    CLASSICAL_FIDELITY,
    USEFULNESS_MARGIN,
    _check_correlation_bound,
    _check_range,
    _discord_branches,
    _fidelity_value,
    _require_unit,
    _spectrum_entropy,
    _x_spectrum_concurrence,
    binary_entropy,
    fidelity_ad_closed_form,
)
from .errors import InputError
from .states import DensityMatrix, XStateParams, _check_x_form, nmems, nmems_ad
from .witnesses import SIGMA_X, SIGMA_Y, SIGMA_Z

logger = logging.getLogger(__name__)

_PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
# _PAULI_TENSOR[i, j] = sigma_i x sigma_j, i, j in {x, y, z}
_PAULI_TENSOR = np.array([[np.kron(si, sj) for sj in _PAULIS] for si in _PAULIS])
_YY = _PAULI_TENSOR[1, 1]


def _check_two_qubit(rho: DensityMatrix, what: str, *, unit: bool = True) -> None:
    """Reject a state that is not 4x4 or, when ``unit``, not of unit trace."""
    if rho.dim != 4:
        raise InputError(f"{what} is defined for two-qubit states")
    if unit:
        _require_unit(rho.normalization, what)


def concurrence_x(xp: XStateParams) -> float:
    """Concurrence of a corner-free X state: 2 max(|c| - sqrt(a e), 0), by
    the sweep's ``_xcore._x_spectrum_concurrence``; ``xp`` is checked."""
    return _x_spectrum_concurrence(xp.a, xp.b, xp.c, xp.d, xp.e)


def concurrence_wootters(rho: DensityMatrix) -> float:
    """Concurrence from the spin-flip spectrum.

    With rho_tilde = (sy x sy) rho* (sy x sy), the descending square roots
    l_1 >= ... >= l_4 of the eigenvalues of the Hermitian matrix
    sqrt(rho) rho_tilde sqrt(rho) give max(0, l_1 - l_2 - l_3 - l_4).

    Those square roots equal the singular values of
    K = sqrt(rho) (sy x sy) sqrt(rho)*, and are computed that way, by
    Hestenes' one-sided Jacobi on K's four columns
    (``linalg._singular_values``): squaring and re-rooting would turn
    ~1e-17 eigenvalue dust into ~1e-9 errors at rank-deficient states.  A
    column pair is rotated while its inner product exceeds 2 eps times the
    product of the two column norms and eps^2 ||K||_F^2; the column norms
    are then s_1 >= ... >= s_4.  A sub-normalized state of trace t gives
    its raw value t C(rho / t), as the X formula and ``fidelity_ad`` read
    the raw state: sqrt(t rho) = sqrt(t) sqrt(rho), so K and its singular
    values scale by t.

    This matrix route serves every state, X states included.  It is the
    oracle of the sweep's scalar chain for X states
    (``_xcore._x_concurrence_wootters``), which forms neither sqrt(rho)
    nor K: a corner-free X state's s_i are sqrt(a e) twice and
    sqrt(b d) +- |c|, read off its five numbers.
    """
    _check_two_qubit(rho, "spin-flip concurrence", unit=False)
    root = linalg.spectrum_sqrt(rho.spectrum)
    k = root @ _YY @ root.conj()
    s1, s2, s3, s4 = linalg._singular_values(k)
    return max(0.0, s1 - s2 - s3 - s4)


@dataclass(frozen=True)
class CorrelationMatrix:
    """3x3 matrix t[i][j] = Re Tr(rho sigma_i x sigma_j), i,j in {x,y,z}."""

    t: np.ndarray


def correlation_matrix(rho: DensityMatrix) -> CorrelationMatrix:
    _check_two_qubit(rho, "correlation matrix", unit=False)
    # all nine traces Tr(rho P_ij) in one batched product; np.einsum would
    # reorder the four-term diagonal sum and move last bits of t
    t = (rho.matrix @ _PAULI_TENSOR).trace(axis1=2, axis2=3).real.copy()
    _check_correlation_bound(float(np.abs(t).max()))
    t.setflags(write=False)
    return CorrelationMatrix(t=t)


def correlation_singular_values(cm: CorrelationMatrix) -> np.ndarray:
    """Singular values of the correlation matrix, descending, by the
    one-sided Jacobi of ``concurrence_wootters`` on T's real columns, as
    Python floats: forming T^T T would square them and lose the small ones.

    A hand-built ``cm`` is checked as ``correlation_matrix`` checks the T
    it builds: it must be a real 3x3 array, and an entry beyond the bound
    of 1 (NaN and inf included) is rejected with that check's message.
    """
    t = np.asarray(cm.t)
    if t.shape != (3, 3) or t.dtype.kind not in "biuf":
        raise InputError(
            f"a correlation matrix is a real 3x3 array, got {t.dtype} of shape {t.shape}"
        )
    t = t.astype(float, copy=False)
    _check_correlation_bound(float(np.abs(t).max()))
    return np.array(linalg._singular_values(t))


def fidelity_from_correlation(cm: CorrelationMatrix) -> FidelityResult:
    """Optimal teleportation fidelity from the correlation matrix.

    N = sum of singular values; the state beats classical teleportation iff
    N > 1, in which case the fidelity is (1 + N/3) / 2; otherwise the
    classical benchmark 2/3 is reported.
    """
    return _fidelity_of(float(correlation_singular_values(cm).sum()))


def _correlation_values(rho: DensityMatrix) -> np.ndarray:
    """``correlation_singular_values(correlation_matrix(rho))``, computed on
    first use and then kept, read-only, on ``rho``."""
    s = rho._correlation_values
    if s is None:
        # correlation_matrix has checked the T it builds
        s = np.array(linalg._singular_values(correlation_matrix(rho).t))
        s.setflags(write=False)
        object.__setattr__(rho, "_correlation_values", s)
    return s


def teleportation_fidelity(rho: DensityMatrix) -> FidelityResult:
    """Optimal teleportation fidelity of a unit-trace two-qubit state."""
    _check_two_qubit(rho, "teleportation fidelity")
    return _fidelity_of(float(_correlation_values(rho).sum()))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-sum_i k_i log2 k_i over the eigenvalues, with 0 log 0 == 0.

    Sub-normalized states are accepted and use their raw eigenvalues; pass
    ``rho.renormalized()`` for the entropy of the unit-trace state.
    """
    return _spectrum_entropy(rho.spectrum.eigenvalues.tolist())


def mid_adc(p: float, theta: float) -> float:
    """Entropy gained by the family under amplitude damping:
    S(damped image) - S(original), on raw spectra.

    At p = 0 the raw damped spectrum is {1/3, (2/3) cos^2 theta, 0, 0}, so
    over theta in [0, pi/4] the raw disturbance peaks where
    (2/3) cos^2 theta = 1/e, at theta* = arcsin sqrt(1 - 3/(2e)) ~ 0.7335,
    not at pi/4.  With the damped image renormalized the maximum moves to
    theta = pi/4.
    """
    return von_neumann_entropy(nmems_ad(p, theta)) - von_neumann_entropy(nmems(p))


def _marginal_basis(marginal: np.ndarray) -> np.ndarray:
    """Eigenbasis of a 2x2 marginal; computational basis when degenerate.

    The marginal of a validated state is finite and exactly Hermitian
    (entries (a, b) and (b, a) come from the same contraction of a matrix
    that is), so it is its own Hermitian part, byte for byte, and goes
    straight to the Jacobi iteration with ``hermitian_eigen``'s bits."""
    spec = linalg._jacobi(marginal.tolist())
    if abs(spec.eigenvalues[0] - spec.eigenvalues[1]) < 1e-10:
        return np.eye(2, dtype=complex)
    return spec.eigenvectors


def mid_dephasing(rho: DensityMatrix) -> float:
    """Measurement-induced disturbance under local marginal-eigenbasis
    dephasing: S(rho') - S(rho), where rho' keeps only the diagonal of rho
    in the product of the marginal eigenbases."""
    _check_two_qubit(rho, "dephasing disturbance")
    # the marginals by the subscripts partial_trace builds for dims (2, 2),
    # on the matrix from_matrix has already validated
    tensor = rho.matrix.reshape(2, 2, 2, 2)
    basis_a = _marginal_basis(tensor.trace(axis1=1, axis2=3))
    basis_b = _marginal_basis(tensor.trace(axis1=0, axis2=2))
    u = linalg._kron_pairs(basis_a, basis_b)
    rotated = u.conj().T @ rho.matrix @ u
    dephased_entropy = _spectrum_entropy(rotated.diagonal().real.tolist())
    return dephased_entropy - von_neumann_entropy(rho)


@dataclass(frozen=True)
class DiscordBreakdown:
    """Both discord branches plus the pieces they are built from."""

    q1: float
    q2: float
    d1: float
    d2: float
    discord: float
    eigenvalues: np.ndarray


def discord_x(rho: DensityMatrix) -> DiscordBreakdown:
    """Quantum discord of an X-structured unit-trace state, min(Q1, Q2).

    Q_j = H(r11 + r33) + sum_i e_i log2 e_i + D_j with e_i the state
    eigenvalues,
    D_1 = H((1 + sqrt([1 - 2(r33 + r44)]^2 + 4(|r14| + |r23|)^2)) / 2),
    D_2 = -sum_i r_ii log2 r_ii - H(r11 + r33).
    """
    _check_two_qubit(rho, "discord")
    rows = _check_x_form(rho.matrix, corners=True)
    diag = [max(rows[k][k].real, 0.0) for k in range(4)]
    r14 = abs(rows[0][3])
    r23 = abs(rows[1][2])
    eigenvalues = np.clip(rho.spectrum.eigenvalues, 0.0, 1.0)
    q1, q2, d1, d2 = _discord_branches(diag, r14, r23, eigenvalues.tolist())
    eigenvalues.setflags(write=False)
    return DiscordBreakdown(
        q1=q1, q2=q2, d1=d1, d2=d2, discord=min(q1, q2), eigenvalues=eigenvalues
    )


_SQRT5 = math.sqrt(5.0)
_LN2 = math.log(2.0)


def _xlnx(v: float) -> float:
    return v * math.log(v) if v > 0.0 else 0.0


def discord_closed_form_branches(p: float) -> tuple[float, float]:
    """The paper's two single-variable discord branches for the family,
    as printed.

    Substitutions: x = (p+2)/6, y = (2-2p)/3, z = (1-p)/3, t = (4-p)/6,
    r = p/2, t1/t2 = 1/2 +- (1-p) sqrt(5)/6.  Returned as (spectral branch,
    plain branch), where the spectral branch is the one carrying t1/t2.
    These are not the branches of discord_x: three x ln x terms are
    printed as products.  In the plain branch -(p+2)x/6 is -x x where
    -x ln x belongs; in the spectral branch (p-4)t/6 is -t t where -t ln t
    belongs, and p r is 2 r r where r ln r belongs.  With those three
    corrected, the spectral branch is discord_x's Q1 and the plain one its
    Q2 (the tests hold this to a few ulp); discord_closed_form_residuals
    gives the gap as printed.
    """
    p = _check_range("p", p, 0.0, 1.0)
    x = (p + 2.0) / 6.0
    y = (2.0 - 2.0 * p) / 3.0
    z = (1.0 - p) / 3.0
    t = (4.0 - p) / 6.0
    r = p / 2.0
    t1 = 0.5 + (1.0 - p) * _SQRT5 / 6.0
    t2 = 0.5 - (1.0 - p) * _SQRT5 / 6.0
    plain = (
        -(p + 2.0) * x / (6.0 * _LN2)
        + _xlnx(x) / _LN2
        + _xlnx(y) / _LN2
        - 2.0 * _xlnx(z) / _LN2
    )
    spectral = (
        (p - 4.0) * t / (6.0 * _LN2)
        - (p + 2.0) * math.log(x) / (6.0 * _LN2)
        + p * r / _LN2
        + _xlnx(x) / _LN2
        + _xlnx(y) / _LN2
        - _xlnx(t1) / _LN2
        - _xlnx(t2) / _LN2
    )
    return spectral, plain


def discord_closed_form(p: float) -> float:
    """Minimum of the paper's two single-variable discord branches at p,
    as printed (see discord_closed_form_branches for the slip).

    This is the paper's printed expression, not a discord: it is negative
    at every p in [0, 1] (from about -0.86 to -0.24), where a discord is
    never negative; discord_x gives the family's discord.
    """
    spectral, plain = discord_closed_form_branches(p)
    value = min(spectral, plain)
    if logger.isEnabledFor(logging.DEBUG):
        res_spectral, res_plain = discord_closed_form_residuals(p)
        logger.debug(
            "closed-form discord at p=%g: value=%g, branch residuals vs matrix "
            "route: spectral=%g, plain=%g",
            p, value, res_spectral, res_plain,
        )
    return value


def discord_closed_form_residuals(p: float) -> tuple[float, float]:
    """Per-branch gap between the closed form and the matrix route at p.

    Returns (spectral branch - Q1, plain branch - Q2).  The spectral branch
    pairs with Q1 because both carry the t1/t2 spectral pair.
    """
    spectral, plain = discord_closed_form_branches(p)
    breakdown = discord_x(nmems(p))
    return spectral - breakdown.q1, plain - breakdown.q2


class FidelityResult(NamedTuple):
    fidelity: float
    useful: bool
    n_value: float


def _fidelity_of(n: float) -> FidelityResult:
    """The fidelity result for the singular-value sum ``n``."""
    return FidelityResult(fidelity=_fidelity_value(n), useful=n > 1.0 + USEFULNESS_MARGIN,
                          n_value=n)


class ChshResult(NamedTuple):
    m_value: float
    violates: bool


def chsh_criterion(rho: DensityMatrix) -> ChshResult:
    """Horodecki criterion: M = s_1^2 + s_2^2 over the two largest singular
    values of T; the CHSH inequality is violated iff M > 1."""
    _check_two_qubit(rho, "CHSH criterion")
    s = _correlation_values(rho)
    m_value = float(s[0] ** 2 + s[1] ** 2)
    return ChshResult(m_value=m_value, violates=m_value > 1.0 + USEFULNESS_MARGIN)
