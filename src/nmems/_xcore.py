"""Scalar arithmetic on the five numbers of a corner-free X state, with no
numpy import.

The family's states and their amplitude-damped images are X states with
real diagonal (a, b, d, e) and real inner coherence c = rho[1, 2]; every
number in the figure presets and the headline report is a function of
(a, b, c, d, e).  This module holds those functions: the range and trace
checks, the family's five numbers and their damped images, the eigenvalues
from the one Jacobi rotation such a state takes, and the scalar forms of
the measures.  It runs no iterative eigensolver.  Each function has the
checks and the messages of the matrix route it stands for, and its bits,
except the spin-flip concurrence, which takes the singular values of K in
closed form and agrees with the matrix route to a few ulp; the tests pin
both.  ``states``, ``linalg``, ``measures`` and ``channels`` import them
back, and the sweep engine, the presets and the headline report run on
this module and the standard library alone.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import NamedTuple

from .errors import InputError, NumericalError

UNIT = "unit"
SUB_NORMALIZED = "sub_normalized"

TRACE_TOL = 1e-10
# traces inside [1 - 1e-12, 1 + 1e-10] count as unit; below that the state is
# explicitly tagged as sub-normalized rather than silently rescaled
SUB_NORMAL_EDGE = 1e-12
# Jacobi iteration: rotate every off-diagonal entry above the threshold until
# a sweep finds none
JACOBI_OFFDIAG_TOL = 1e-12
# Eigenvalues in [-1e-10, 0) count as roundoff zeros; anything lower is a
# genuinely indefinite matrix.
EIGENVALUE_FLOOR = -1e-10

USEFULNESS_MARGIN = 1e-12
CLASSICAL_FIDELITY = 2.0 / 3.0
FAMILY_TOL = 1e-12

GHZ_AMPLITUDE = 1.0 / math.sqrt(2.0)
W_AMPLITUDE = 1.0 / math.sqrt(3.0)

# The entries of Tr_c |GHZ><GHZ| and Tr_c |W><W| (states.ghz_reduced and
# states.w_reduced) at the six places the family's X form fills, in the
# order (0, 0), (1, 1), (1, 2), (2, 1), (2, 2), (3, 3); both are zero
# everywhere else.  Each is a product of two amplitudes, as in |v><v|.
_X_PLACES = ((0, 0), (1, 1), (1, 2), (2, 1), (2, 2), (3, 3))
_GHZ = GHZ_AMPLITUDE * GHZ_AMPLITUDE
_W = W_AMPLITUDE * W_AMPLITUDE
_GHZ_REDUCED = (_GHZ, 0.0, 0.0, 0.0, 0.0, _GHZ)
_W_REDUCED = (_W, _W, _W, _W, _W, 0.0)

# The entries of the witness matrices at the same six places, by name as
# in witnesses: witness_generic(2), witness_w1() and witness_stabilizer().
# Tr(W rho) of a corner-free X state reads no other entry of W.
_WITNESS_ENTRIES = {
    "generic": (0.5 - _GHZ, 0.5, 0.0, 0.0, 0.5, 0.5 - _GHZ),
    "w1": (4.0 / 9.0 - _W, 4.0 / 9.0 - _W, -_W, -_W, 4.0 / 9.0 - _W, 4.0 / 9.0),
    "stabilizer": (1.0, 1.0, -2.0, -2.0, 1.0, 1.0),
}


def _check_range(name: str, value: float, lo: float, hi: float) -> float:
    value = float(value)
    if not (lo <= value <= hi) or not math.isfinite(value):
        raise InputError(f"{name} must lie in [{lo:g}, {hi:g}], got {value!r}")
    return value


def _check_finite(*entries) -> None:
    if not all(map(math.isfinite, entries)):
        raise InputError("matrix entries must be finite")


def _normalization(lowest: float, tr: float) -> str:
    """The trace tag of a state whose smallest eigenvalue is ``lowest`` and
    whose trace is ``tr``: rejects an eigenvalue below -1e-10 first, then a
    trace outside (0, 1 + 1e-10]."""
    if lowest < EIGENVALUE_FLOOR:
        raise InputError(f"density matrix has negative eigenvalue {lowest:.3e}")
    if tr >= 1.0 - SUB_NORMAL_EDGE and tr <= 1.0 + TRACE_TOL:
        return UNIT
    if 0.0 < tr < 1.0 - SUB_NORMAL_EDGE:
        return SUB_NORMALIZED
    raise InputError(f"density matrix trace {tr!r} outside (0, 1]")


def _check_x_params(a: float, b: float, c: complex, d: float, e: float) -> None:
    """XStateParams' checks: finite entries, a non-negative diagonal and
    |c| <= sqrt(b d)."""
    if not all(map(cmath.isfinite, (a, b, c, d, e))):
        raise InputError("X-state parameters must be finite")
    for name, value in (("a", a), ("b", b), ("d", d), ("e", e)):
        if value < 0.0:
            raise InputError(f"X-state parameter {name} must be non-negative")
    if abs(c) > math.sqrt(b * d) + 1e-9:
        raise InputError("coherence |c| exceeds sqrt(b*d); not a valid state")


def _require_unit(tag: str, what: str) -> None:
    """The unit-trace check of the measures that are defined only there."""
    if tag != UNIT:
        raise InputError(f"{what} requires a unit-trace state")


# ------------------------------------------------------------------ states

def _family_x(p: float) -> tuple:
    """(a, b, c, d, e) of nmems(p): diagonal ((p+2)/6, z, z, p/2) and inner
    coherence z, with z = (1-p)/3."""
    z = (1.0 - p) / 3.0
    return (p + 2.0) / 6.0, z, z, z, p / 2.0


def _check_family(p: float, a: float, b: float, c: float, d: float, e: float) -> None:
    """nmems' cross-check of its closed form (a, b, c, d, e) against the
    mixture p Tr_c |GHZ><GHZ| + (1 - p) Tr_c |W><W|: NumericalError if they
    differ by more than 1e-12 in any entry.

    Only the six places of the X form can differ, and each is
    p * ghz + (1 - p) * w - x with the float operations numpy applies to
    the two reduced matrices, so the gap has the bits of the dense check.
    """
    q = 1.0 - p
    gap = max(abs(p * g + q * w - v)
              for g, w, v in zip(_GHZ_REDUCED, _W_REDUCED, (a, b, c, c, d, e)))
    if gap > FAMILY_TOL:
        raise NumericalError(
            f"mixture and closed-form constructions disagree by {gap:.3e}"
        )


def _family(p: float) -> tuple:
    """(x, eigenvalues, trace tag) of nmems(p), with x = (a, b, c, d, e),
    with its bits, its checks and their messages, without building it: the
    range check on p, ``_x_spectrum``'s checks, then the mixture check."""
    p = _check_range("p", p, 0.0, 1.0)
    x = _family_x(p)
    vals, tag = _x_spectrum(*x)
    _check_family(p, *x)
    return x, vals, tag


def _damped_x(p: float, theta: float) -> tuple:
    """(a, b, c, d, e) of nmems_ad(p, theta), range checks included."""
    p = _check_range("p", p, 0.0, 1.0)
    return _family_damped_x(_family_x(p), _closed_form_factors(theta))


def _closed_form_factors(theta: float) -> tuple:
    """((1 - gamma), (1 - gamma)^2) with gamma = sin^2 theta, the factors of
    nmems_ad at one theta, after its range check on theta."""
    theta = _check_range("theta", theta, 0.0, math.pi / 2.0)
    gamma = math.sin(theta) ** 2
    return 1.0 - gamma, (1.0 - gamma) ** 2


def _family_damped_x(x: tuple, factors: tuple) -> tuple:
    """(a, b, c, d, e) of nmems_ad for the family's five numbers ``x``
    (``_family_x``) and the ``_closed_form_factors`` of theta: the coherence
    block scales by (1 - gamma), the |11> weight by (1 - gamma)^2 and the
    |00> weight stays, so the lost trace is not put back."""
    a, z, _, _, e = x
    one_g, one_g2 = factors
    z = z * one_g
    return a, z, z, z, e * one_g2


def _adc_pair_x(a: float, b: float, c: float, d: float, e: float, gamma: float,
                *, correlated: bool) -> tuple:
    """(a, b, c, d, e) of the image of the corner-free X state with
    diagonal (a, b, d, e) and inner coherence c, all of them floats >= +0.0
    as in the family, under ``apply_correlated_pair(adc(gamma), .)`` or,
    when not ``correlated``, ``apply_product_pair(adc(gamma), .)``, with the
    image's bits.

    Replays ``_kraus_sum``'s float operations on the nonzero entries:
    each term is (K rho) K^dagger, added to the running sum in operator
    order, and adding a zero entry leaves a value as it is.  The images
    stay corner-free X states.  Makes ``adc``'s range check on gamma.
    (A negative or -0.0 entry can give -0.0 here where the matrix holds
    0.0.)
    """
    image = _correlated_pair_x if correlated else _product_pair_x
    return image((a, b, c, d, e), _adc_factors(gamma))


def _adc_factors(gamma: float) -> tuple:
    """(s, g, s s, g g, g s) with s = sqrt(1 - gamma) and g = sqrt(gamma),
    the Kraus amplitudes of adc(gamma) and their products, after ``adc``'s
    range check on gamma."""
    gamma = _check_range("gamma", gamma, 0.0, 1.0)
    s = math.sqrt(1.0 - gamma)
    g = math.sqrt(gamma)
    return s, g, s * s, g * g, g * s


def _correlated_pair_x(x: tuple, factors: tuple) -> tuple:
    """``_adc_pair_x`` with ``correlated``, given the five numbers ``x`` and
    the ``_adc_factors`` of gamma: K0 x K0, then K1 x K1, which moves |11>
    onto |00>."""
    a, b, c, d, e = x
    s, _, ss, gg, _ = factors
    return a + (gg * e) * gg, (s * b) * s, (s * c) * s, (s * d) * s, (ss * e) * ss


def _product_pair_x(x: tuple, factors: tuple) -> tuple:
    """``_adc_pair_x`` without ``correlated``, given the five numbers ``x``
    and the ``_adc_factors`` of gamma: K0 x K0, K0 x K1, K1 x K0, K1 x K1,
    where the middle two each move one excitation down."""
    a, b, c, d, e = x
    s, g, ss, gg, gs = factors
    return (
        ((a + (g * b) * g) + (g * d) * g) + (gg * e) * gg,
        (s * b) * s + (gs * e) * gs,
        (s * c) * s,
        (s * d) * s + (gs * e) * gs,
        (ss * e) * ss,
    )


def _x_trace(a: float, b: float, d: float, e: float) -> float:
    """Trace of the X state with diagonal (a, b, d, e), summed in the order
    np.trace adds four complex entries, so it has the bits of
    ``DensityMatrix._from_x(a, b, c, d, e).trace_value``."""
    return (a + b) + (d + e)


def _x_jacobi(a, b, c, d, e) -> tuple:
    """(diagonal, rotation) that ``linalg._jacobi`` leaves, before it sorts,
    for the corner-free X matrix with diagonal (a, b, d, e) and
    w[1][2] = c, w[2][1] = conj(c), bit for bit: the diagonal as a list of
    four floats in index order, and the rotation as (cos, sin * phase,
    sin * conj(phase)), (1.0, 0.0, 0.0) if nothing was rotated.  The
    eigenvector accumulator is the identity but on rows and columns 1 and
    2, where it holds [[cos, -sin * phase], [sin * conj(phase), cos]].

    ``_jacobi`` rotates such a matrix once, on the pair (1, 2), and only if
    |c| > 1e-12: every other off-diagonal entry is zero before and after.
    This replays that rotation on Python scalars with the operations of
    ``linalg``'s plane rotation.  Entries must be finite.
    """
    w11, w22 = complex(b), complex(d)
    w12, w21 = complex(c), complex(c.conjugate())
    r = abs(w12)
    if r <= JACOBI_OFFDIAG_TOL:
        return [complex(a).real, w11.real, w22.real, complex(e).real], (1.0, 0.0, 0.0)
    phase = w12 / r
    cphase = phase.conjugate()
    theta = 0.5 * math.atan2(2.0 * r, w11.real - w22.real)
    cs = math.cos(theta)
    s = math.sin(theta)
    s_ph = s * phase
    s_cph = s * cphase
    # the plane rotation's column pass on rows 1 and 2, then its row pass
    # on the diagonal entries
    c11 = cs * w11 + s_cph * w12
    c12 = -s_ph * w11 + cs * w12
    c21 = cs * w21 + s_cph * w22
    c22 = -s_ph * w21 + cs * w22
    w11 = cs * c11 + s_ph * c21
    w22 = -s_cph * c12 + cs * c22
    return [complex(a).real, w11.real, w22.real, complex(e).real], (cs, s_ph, s_cph)


def _x_eigenvalues(a, b, c, d, e) -> list:
    """Descending eigenvalues ``linalg._jacobi`` finds for the same X
    matrix, bit for bit, as a list of floats: ``_x_jacobi``'s diagonal,
    sorted as ``_jacobi`` sorts."""
    diag, _ = _x_jacobi(a, b, c, d, e)
    diag.sort(reverse=True)
    return diag


def _x_spectrum(a: float, b: float, c: float, d: float, e: float) -> tuple:
    """(descending eigenvalues, normalization tag) of
    ``DensityMatrix._from_x(a, b, c, d, e)``, bit for bit, without building
    it.

    Makes the checks ``_from_x`` makes, with the same messages: finite
    entries, the eigenvalue floor and the trace window.
    """
    _check_finite(a, b, c, d, e)
    vals = _x_eigenvalues(a, b, c, d, e)
    return vals, _normalization(vals[-1], _x_trace(a, b, d, e))


# ---------------------------------------------------------------- measures

def _xlog2x(v: float) -> float:
    return v * math.log2(v) if v > 0.0 else 0.0


def binary_entropy(x: float) -> float:
    """H(x) = -x log2 x - (1-x) log2 (1-x), clamping roundoff dust at 0/1."""
    if not -1e-9 <= x <= 1.0 + 1e-9:
        raise InputError(f"binary entropy argument {x!r} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    return -_xlog2x(x) - _xlog2x(1.0 - x)


def _spectrum_entropy(vals: list) -> float:
    """-sum_i v_i log2 v_i over a list of eigenvalues or probabilities,
    summed in list order.

    _xlog2x sends v <= 0 to 0, so roundoff-negative values need no clip.
    A plain loop, not builtin sum: from Python 3.12 on sum compensates float
    sums, which moves the last bit of some entropies.
    """
    total = 0.0
    for v in vals:
        total += _xlog2x(v)
    return -total


def _x_concurrence(a: float, b: float, c: complex, d: float, e: float) -> float:
    """``concurrence_x(XStateParams(a, b, c, d, e))``, with the dataclass's
    checks and messages, without building it."""
    _check_x_params(a, b, c, d, e)
    return 2.0 * max(abs(c) - math.sqrt(a * e), 0.0)


def _x_concurrence_wootters(a: float, b: float, c: float, d: float, e: float) -> float:
    """``concurrence_wootters(DensityMatrix._from_x(a, b, c, d, e))`` of the
    corner-free X state with real diagonal (a, b, d, e) and real inner
    coherence c, without building it, with the checks and messages of that
    route: ``_x_spectrum``'s and the unit-trace rejection.

    sqrt(rho) = V diag(sqrt(max(w, 0))) V^dagger (``linalg.spectrum_sqrt``)
    is diagonal except on rows and columns 1 and 2, where V is
    ``_x_jacobi``'s rotation.  K = sqrt(rho) (sy x sy) sqrt(rho)* is then an
    X matrix with corners -sqrt(a) sqrt(e) and inner block B,
    B_ij = S_i2 conj(S_1j) + S_i1 conj(S_2j), so its singular values are
    |K_03| = |K_30| and the two of B, in closed form (Wootters, PRL 80,
    2245; Yu and Eberly, QIC 7, 459):
    sigma_1^2 = (F + sqrt(F^2 - 4 |det B|^2)) / 2 with F = ||B||_F^2, and
    sigma_2 = |det B| / sigma_1, which cancels nothing.  The value agrees
    with the matrix route's Jacobi on the dilation of K to a few ulp.
    """
    _check_finite(a, b, c, d, e)
    diag, rotation = _x_jacobi(a, b, c, d, e)
    _require_unit(_normalization(min(diag), _x_trace(a, b, d, e)),
                  "spin-flip concurrence")
    cs, s_ph, s_cph = rotation
    v11, v12, v21, v22 = cs, -s_ph, s_cph, cs
    r0, r1, r2, r3 = (math.sqrt(max(v, 0.0)) for v in diag)
    # S = (V diag(r)) V^dagger on rows and columns 1 and 2, as spectrum_sqrt
    # forms it; rows and columns 0 and 3 are diag(r0, r3)
    u11, u12, u21, u22 = v11 * r1, v12 * r2, v21 * r1, v22 * r2
    s11 = u11 * v11.conjugate() + u12 * v12.conjugate()
    s12 = u11 * v21.conjugate() + u12 * v22.conjugate()
    s21 = u21 * v11.conjugate() + u22 * v12.conjugate()
    s22 = u21 * v21.conjugate() + u22 * v22.conjugate()
    # B, the inner block of K = (S (sy x sy)) conj(S)
    k11 = s12 * s11.conjugate() + s11 * s21.conjugate()
    k12 = s12 * s12.conjugate() + s11 * s22.conjugate()
    k21 = s22 * s11.conjugate() + s21 * s21.conjugate()
    k22 = s22 * s12.conjugate() + s21 * s22.conjugate()
    frob = (abs(k11) ** 2 + abs(k12) ** 2) + (abs(k21) ** 2 + abs(k22) ** 2)
    det = abs(k11 * k22 - k12 * k21)
    sigma1 = math.sqrt((frob + math.sqrt(max(frob * frob - 4.0 * det * det, 0.0))) / 2.0)
    sigma2 = det / sigma1 if sigma1 else 0.0
    corner = r0 * r3
    s1, s2, s3, s4 = sorted((corner, corner, sigma1, sigma2), reverse=True)
    return max(0.0, s1 - s2 - s3 - s4)


def _x_params(a: float, b: float, c: float, d: float, e: float) -> tuple:
    """The (a, b, c, d, e) ``x_params_of`` reads off
    ``DensityMatrix._from_x(a, b, c, d, e)``: the diagonal clamped at 0.0.
    XStateParams' checks are the caller's."""
    return max(a, 0.0), max(b, 0.0), c, max(d, 0.0), max(e, 0.0)


def _check_correlation_bound(largest: float) -> None:
    """Reject a correlation matrix whose largest |t_ij| exceeds 1 + 1e-9."""
    if largest > 1.0 + 1e-9:
        raise InputError("correlation entries exceed the physical bound of 1")


def _x_correlations(a: float, b: float, c: float, d: float, e: float) -> tuple:
    """(t_xx, t_yy, t_zz) of ``correlation_matrix`` of the corner-free X
    state with real diagonal (a, b, d, e) and real inner coherence c, with
    its bits; every other entry of t is zero.

    Replays the batched trace: the diagonal of rho (sigma_i x sigma_i)
    is (0, c, c, 0) for x and y and (a, -b, -d, e) for z, summed as
    numpy sums it.  (A coherence of -0.0 gives t_xx = -0.0 where the
    matrix holds 0.0.)
    """
    txx = c + c
    return txx, txx, (a + -b) + (-d + e)


def _x_singular_values(a: float, b: float, c: float, d: float, e: float) -> list:
    """``correlation_singular_values(correlation_matrix(rho))`` of the same
    X state as a descending list, with its bits and its rejection.

    T is diagonal, so T^T T has eigenvalues t_ii^2 and no Jacobi rotation.
    """
    t = _x_correlations(a, b, c, d, e)
    _check_correlation_bound(max(abs(v) for v in t))
    return sorted((math.sqrt(v * v) for v in t), reverse=True)


def _x_correlation_sum(a: float, b: float, c: float, d: float, e: float) -> float:
    """N, the singular-value sum ``fidelity_from_correlation`` reads, of the
    same X state, with its bits: summed in descending order, as numpy sums
    ``correlation_singular_values``."""
    s0, s1, s2 = _x_singular_values(a, b, c, d, e)
    return (s0 + s1) + s2


def _x_fidelity(a: float, b: float, c: float, d: float, e: float) -> float:
    """``fidelity_from_correlation(correlation_matrix(rho)).fidelity`` of the
    same X state, with its bits and its rejection, without building it."""
    return _fidelity_of(_x_correlation_sum(a, b, c, d, e)).fidelity


def _x_chsh(a: float, b: float, c: float, d: float, e: float) -> float:
    """M = s_1^2 + s_2^2, ``chsh_criterion``'s value from the two largest
    singular values, of the same X state, with its bits (the squares are
    taken by the same libm pow numpy's scalar power calls)."""
    s0, s1, _ = _x_singular_values(a, b, c, d, e)
    return s0 ** 2 + s1 ** 2


class FidelityResult(NamedTuple):
    fidelity: float
    useful: bool
    n_value: float


def _fidelity_of(n: float) -> FidelityResult:
    """The fidelity result for the singular-value sum ``n``."""
    useful = n > 1.0 + USEFULNESS_MARGIN
    fidelity = 0.5 * (1.0 + n / 3.0) if useful else CLASSICAL_FIDELITY
    return FidelityResult(fidelity=fidelity, useful=useful, n_value=n)


def _discord_branches(diag: list, r14: float, r23: float, eigenvalues: list) -> tuple:
    """(q1, q2, d1, d2) of the X-state discord for the diagonal ``diag``,
    the coherence magnitudes |r14| and |r23| and the state's eigenvalues,
    already clipped to [0, 1]; ``measures.discord_x`` documents the
    formula."""
    spectral_term = -_spectrum_entropy(eigenvalues)
    h_marginal = binary_entropy(diag[0] + diag[2])
    radicand = (1.0 - 2.0 * (diag[2] + diag[3])) ** 2 + 4.0 * (r14 + r23) ** 2
    d1 = binary_entropy((1.0 + math.sqrt(radicand)) / 2.0)
    d2 = _spectrum_entropy(diag) - h_marginal
    return h_marginal + spectral_term + d1, h_marginal + spectral_term + d2, d1, d2


def _x_discord(a: float, b: float, c: float, d: float, e: float, vals: list) -> float:
    """``discord_x(DensityMatrix._from_x(a, b, c, d, e)).discord``, with its
    bits, given the state's eigenvalues ``vals`` as ``_x_spectrum`` returns
    them; the caller makes the unit-trace check.

    The corner coherence is zero, so |r14| is 0.0 and |r23| is |c|, and
    numpy's clip of the eigenvalues to [0, 1] is min(max(v, 0), 1).
    """
    diag = [max(a, 0.0), max(b, 0.0), max(d, 0.0), max(e, 0.0)]
    clipped = [min(max(v, 0.0), 1.0) for v in vals]
    q1, q2, _, _ = _discord_branches(diag, 0.0, abs(c), clipped)
    return min(q1, q2)


def _x_expectation(entries: tuple, a: float, b: float, c: float, d: float,
                   e: float) -> float:
    """Tr(W rho) for the corner-free X state and a real witness W given by
    its six ``entries`` at the places of the X form, in the order of
    ``_X_PLACES``.

    The diagonal of W rho is (W00 a, W11 b + W12 c, W21 c + W22 d, W33 e),
    summed as ``_x_trace`` sums.  Where no row adds two inexact products,
    as for the generic and stabilizer witnesses, the value has the bits of
    ``witnesses.evaluate``.  For w1 it has them where the matrix product
    rounds each product (OpenBLAS's kernels without fused multiply-adds,
    Prescott to Sandybridge); a kernel that fuses a multiply-add adds the
    two terms of a row with one rounding fewer, and the two agree to a few
    ulp.
    """
    w00, w11, w12, w21, w22, w33 = entries
    return (w00 * a + (w11 * b + w12 * c)) + ((w21 * c + w22 * d) + w33 * e)


def fidelity_ad_closed_form(p: float, theta: float) -> float:
    """Closed-form optimal fidelity of the damped family (long radical form).

    Both radicands factor exactly, so the long expression must equal
    1/2 + (1-p)(1-g)/9 + (1-g) sqrt(3 p (p+2)) / 18 with g = sin^2(theta);
    the equality is asserted on every call, to 1e-12 plus the roundoff the
    square roots amplify near a zero radicand.  Note this expression
    does NOT reduce to the undamped correlation-criterion fidelity at
    theta = 0 (it gives 11/18 instead of 7/9 at p = 0); see the headline
    report for the quantified discrepancy.
    """
    p = _check_range("p", p, 0.0, 1.0)
    theta = _check_range("theta", theta, 0.0, math.pi / 2.0)
    s2 = math.sin(theta) ** 2
    s4 = s2 * s2
    terms1 = (
        s4 * p * p, -2.0 * s4 * p, s4,
        -2.0 * s2 * p * p, 4.0 * s2 * p, -2.0 * s2,
        p * p, -2.0 * p, 1.0,
    )
    terms2 = (
        3.0 * s4 * p * p, 6.0 * s4 * p,
        -6.0 * s2 * p * p, -12.0 * s2 * p,
        3.0 * p * p, 6.0 * p,
    )
    # fsum keeps the near-total cancellation at gamma -> 1 exact; a naive
    # left-to-right sum leaves ~1e-16 dust that the square root amplifies
    rad1 = math.fsum(terms1)
    rad2 = math.fsum(terms2)
    value = 0.5 + math.sqrt(max(rad1, 0.0)) / 9.0 + math.sqrt(max(rad2, 0.0)) / 18.0
    gamma = s2
    root1 = (1.0 - p) * (1.0 - gamma)
    root2 = (1.0 - gamma) * math.sqrt(3.0 * p * (p + 2.0))
    compact = 0.5 + root1 / 9.0 + root2 / 18.0
    gap = abs(value - compact)
    # near a zero radicand the long form's roundoff alone can exceed 1e-12
    if gap > 1e-12 and gap > (
        1e-12
        + _sqrt_rounding(terms1, rad1, root1) / 9.0
        + _sqrt_rounding(terms2, rad2, root2) / 18.0
    ):
        raise NumericalError(
            f"closed-form fidelity failed its factored cross-check at "
            f"(p={p:g}, theta={theta:g}): {value!r} vs {compact!r}"
        )
    return value


def _sqrt_rounding(terms: tuple, rad: float, root: float) -> float:
    """Bound on |sqrt(rad) - root|, where rad is the exact fsum of ``terms``
    rounded once, ``root`` >= 0 is the square root of the exact radicand,
    and each term carries at most four roundings.

    The radicand's error is then below 8 ulp of sum |terms|, and
    |sqrt(x) - sqrt(y)| <= min(sqrt(|x - y|), |x - y| / (sqrt(x) + sqrt(y))):
    near a zero radicand the square root turns 1e-16 into up to 1e-8.
    """
    err = 8.0 * sys.float_info.epsilon * math.fsum(abs(t) for t in terms)
    spread = math.sqrt(max(rad, 0.0)) + root
    return math.sqrt(err) if spread == 0.0 else min(math.sqrt(err), err / spread)
