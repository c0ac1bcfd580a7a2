"""Scalar arithmetic on the five numbers of a corner-free X state, with no
numpy import.

The family's states and their amplitude-damped images are X states with
real diagonal (a, b, d, e) and real inner coherence c = rho[1, 2]; every
number in the figure presets and the headline report is a function of
(a, b, c, d, e).  This module holds those functions: the range and trace
checks, the family's five numbers, the factors of gamma = sin^2 theta
with the one range check on theta (``_theta_factors``, which every
damped column and the closed-form fidelity read), the channel modes, their
one check and the table of their images (``_DAMPING``), the eigenvalues
from the one Jacobi rotation such a state takes, replayed on floats (the
coherence is real, so the complex rotation's imaginary parts are all
zero, and its angle a constant where b == d), and the scalar forms of the
measures.  A sweep takes each theta's factors once, and the closed-form
fidelity's factors of p once per p.  It runs no iterative eigensolver;
one pass (``_x_row``) makes ``_x_spectrum``'s checks (finite entries, the
eigenvalue floor, the trace window) on a p-row's damped states, built as
five columns (``_damped_columns``), and the concurrence columns then
check only the coherence bound |c| <= sqrt(b d) + 1e-9, because the
numbers are finite, the clamp makes the diagonal non-negative, and the
floor does not imply the bound; ``measures.concurrence_x`` runs that
same ``_x_concurrences``.  Each function has the checks and the
messages of the matrix route it stands for, and its bits, except the
spin-flip concurrence: it reads the singular values of
K = sqrt(rho) (sy x sy) sqrt(rho)* off the five numbers, where they are
known exactly, forms neither sqrt(rho) nor K, and agrees with the matrix
route to a few ulp; the tests pin both.  ``states``, ``linalg``,
``measures`` and ``channels`` import the checks and constants they share
from here; the sweep engine, the presets and the headline report run on
this module and the standard library alone, so it holds nothing only the
matrix API needs, and imports neither ``typing`` nor ``cmath``.
"""

import math

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
# cos and sin of the rotation where b == d: atan2(2 |c|, +-0.0) is pi/2
_EQUAL_DIAG_COS = math.cos(0.5 * math.atan2(1.0, 0.0))
_EQUAL_DIAG_SIN = math.sin(0.5 * math.atan2(1.0, 0.0))
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
    try:
        value = float(value)
    except OverflowError:
        # an int beyond the float range, reported as the infinity that
        # float() makes of its text
        value = math.inf if value > 0 else -math.inf
    if not (lo <= value <= hi) or not math.isfinite(value):
        raise InputError(f"{name} must lie in [{lo:g}, {hi:g}], got {value!r}")
    return value


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


def _check_coherence(b: float, c: complex, d: float) -> None:
    """XStateParams' last check, the coherence bound |c| <= sqrt(b d) + 1e-9,
    for a finite c and a non-negative b and d."""
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
    (g0, g1, g2, g3, g4, g5), (w0, w1, w2, w3, w4, w5) = _GHZ_REDUCED, _W_REDUCED
    gap = max(abs(p * g0 + q * w0 - a), abs(p * g1 + q * w1 - b), abs(p * g2 + q * w2 - c),
              abs(p * g3 + q * w3 - c), abs(p * g4 + q * w4 - d), abs(p * g5 + q * w5 - e))
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


def _theta_factors(theta: float) -> tuple:
    """(1 - gamma, (1 - gamma)^2, s, g, s s, g g, g s) for gamma = sin^2 theta,
    with s = sqrt(1 - gamma) and g = sqrt(gamma) the Kraus amplitudes of
    adc(gamma), after the one range check on theta, which leaves gamma in
    [0, 1]: what every damping map and the closed-form fidelity read."""
    theta = _check_range("theta", theta, 0.0, math.pi / 2.0)
    gamma = math.sin(theta) ** 2
    one_g = 1.0 - gamma
    s = math.sqrt(one_g)
    g = math.sqrt(gamma)
    return one_g, one_g ** 2, s, g, s * s, g * g, g * s


def _family_damped_x(x: tuple, factors: tuple) -> tuple:
    """(a, b, c, d, e) of nmems_ad for the family's five numbers ``x``
    (``_family_x``) and the ``_theta_factors`` of theta: the coherence
    block scales by (1 - gamma), the |11> weight by (1 - gamma)^2 and the
    |00> weight stays, so the lost trace is not put back."""
    a, z, _, _, e = x
    one_g, one_g2, _, _, _, _, _ = factors
    z = z * one_g
    return a, z, z, z, e * one_g2


# The Kraus images below take five numbers that are floats >= +0.0, as the
# family's are, and give the bits of apply_correlated_pair(adc(gamma), .)
# and apply_product_pair(adc(gamma), .) on the dense X matrix: they replay
# _kraus_sum's float operations on the nonzero entries, each term
# (K rho) K^dagger added to the running sum in operator order, and adding a
# zero entry leaves a value as it is.  The images stay corner-free X states.
# (A negative or -0.0 entry can give -0.0 here where the matrix holds 0.0.)

def _correlated_pair_x(x: tuple, factors: tuple) -> tuple:
    """(a, b, c, d, e) of the correlated Kraus pair map's image of the five
    numbers ``x``, given the ``_theta_factors`` of theta: K0 x K0, then
    K1 x K1, which moves |11> onto |00>."""
    a, b, c, d, e = x
    _, _, s, _, ss, gg, _ = factors
    return a + (gg * e) * gg, (s * b) * s, (s * c) * s, (s * d) * s, (ss * e) * ss


def _product_pair_x(x: tuple, factors: tuple) -> tuple:
    """(a, b, c, d, e) of the product Kraus pair map's image of the five
    numbers ``x``, given the ``_theta_factors`` of theta: K0 x K0, K0 x K1,
    K1 x K0, K1 x K1, where the middle two each move one excitation down."""
    a, b, c, d, e = x
    _, _, s, g, ss, gg, gs = factors
    return (
        ((a + (g * b) * g) + (g * d) * g) + (gg * e) * gg,
        (s * b) * s + (gs * e) * gs,
        (s * c) * s,
        (s * d) * s + (gs * e) * gs,
        (ss * e) * ss,
    )


# how the damped state at a grid point is produced
MODE_CLOSED_FORM = "closed_form"   # nmems_ad closed form (trace-draining)
MODE_CORRELATED = "correlated"     # identical-index Kraus pair map
MODE_PRODUCT = "product"           # independent noise on each qubit
CHANNEL_MODES = (MODE_CLOSED_FORM, MODE_CORRELATED, MODE_PRODUCT)

# per channel mode: the damped state's five numbers from the family's five
# numbers and the ``_theta_factors`` of theta, looked up by a mode that
# ``_check_mode`` has passed: the per-point route (``_mode_damped_x``), of
# which the sweep's ``_damped_columns`` is the row form; registry._damped is
# this table's matrix oracle.
_DAMPING = {
    MODE_CLOSED_FORM: _family_damped_x,
    MODE_CORRELATED: _correlated_pair_x,
    MODE_PRODUCT: _product_pair_x,
}


def _check_mode(mode: str) -> str:
    """The one check of a channel mode: membership in CHANNEL_MODES, a tuple."""
    if mode not in CHANNEL_MODES:
        raise InputError(f"unknown channel mode {mode!r}; "
                         f"choose from: {', '.join(CHANNEL_MODES)}")
    return mode


def _mode_damped_x(mode: str, p: float, theta: float) -> tuple:
    """(a, b, c, d, e) of the damped state at (p, theta) in channel mode
    ``mode``, with the bits of ``registry._damped`` and the checks of every
    registry entry: p, then theta (once, in ``_theta_factors``), then the
    mode.  ``nmems_ad(p, theta)`` is the closed_form entry."""
    x, factors = _family_x(_check_range("p", p, 0.0, 1.0)), _theta_factors(theta)
    return _DAMPING[_check_mode(mode)](x, factors)


def _x_eigenvalues(a: float, b: float, c: float, d: float, e: float) -> list:
    """Descending eigenvalues ``linalg._jacobi`` finds for the corner-free X
    matrix with real diagonal (a, b, d, e) and real w[1][2] = w[2][1] = c,
    bit for bit, as a list of floats.

    ``_jacobi`` rotates such a matrix once, on the pair (1, 2), and only if
    |c| > 1e-12: every other off-diagonal entry is zero before and after.
    This replays that rotation's 2x2 block on floats with the operations of
    ``linalg._diagonalize``, then sorts the diagonal as ``_jacobi`` sorts.
    With c real the phase c / |c| is exactly +-1.0, so every complex entry
    and product of the rotation has a zero imaginary part, and a complex
    product's real part is the float product of the real parts less a zero:
    the floats below are the complex rotation's real parts, bit for bit.
    (A signed zero the complex route would drop is always added to a
    nonzero term, or to +0.0, before it reaches the diagonal.)  Where
    b == d, as in the family and its damped images, the angle is one float
    for every c, so its cos and sin are constants.  Entries must be finite
    and c a float.
    """
    r = abs(c)
    if r > JACOBI_OFFDIAG_TOL:
        ph = c / r
        if b == d:
            cs, s_ph = _EQUAL_DIAG_COS, _EQUAL_DIAG_SIN * ph
        else:
            theta = 0.5 * math.atan2(2.0 * r, b - d)
            cs = math.cos(theta)
            s_ph = math.sin(theta) * ph
        # _diagonalize's block formulas: the column pass on rows 1 and 2,
        # then the row pass's diagonal; s * conj(phase) is s * phase here
        c11 = cs * b + s_ph * c
        c12 = -s_ph * b + cs * c
        c21 = cs * c + s_ph * d
        c22 = -s_ph * c + cs * d
        b = cs * c11 + s_ph * c21
        d = -s_ph * c12 + cs * c22
    diag = [a, b, d, e]
    diag.sort(reverse=True)
    return diag


def _x_spectrum(a: float, b: float, c: float, d: float, e: float) -> tuple:
    """(descending eigenvalues, normalization tag) of
    ``DensityMatrix.from_matrix`` of the dense X matrix, bit for bit,
    without building it, after its checks, with their messages: finite
    entries, the eigenvalue floor, then the trace window on the trace
    summed as np.trace sums the diagonal."""
    isfinite = math.isfinite
    if not (isfinite(a) and isfinite(b) and isfinite(c) and isfinite(d) and isfinite(e)):
        raise InputError("matrix entries must be finite")
    vals = _x_eigenvalues(a, b, c, d, e)
    return vals, _normalization(vals[-1], (a + b) + (d + e))


def _damped_columns(mode: str, x: tuple, thetas: tuple) -> tuple:
    """``_DAMPING[mode]`` of the family's five numbers ``x`` at each theta
    of a grid whose ``_theta_factors`` are the seven columns ``thetas``, as
    five columns (a, b, c, d, e), with its bits.  d is b, one list, and so
    is c where the image keeps b == c (closed_form, correlated)."""
    a, z, _, _, e = x
    one_g, one_g2, s, g, ss, gg, gs = thetas
    if mode == MODE_CLOSED_FORM:
        zs = [z * f for f in one_g]
        return [a] * len(zs), zs, zs, zs, [e * f for f in one_g2]
    zs = [(f * z) * f for f in s]
    es = [(f * e) * f for f in ss]
    if mode == MODE_CORRELATED:
        return [a + (f * e) * f for f in gg], zs, zs, zs, es
    bs = [v + (f * e) * f for v, f in zip(zs, gs)]
    return [((a + (h * z) * h) + (h * z) * h) + (f * e) * f for h, f in zip(g, gg)], bs, zs, bs, es


def _x_row(a_col: list, b_col: list, c_col: list, d_col: list, e_col: list,
           entropies: bool):
    """``_x_spectrum``'s checks and messages on each state of five columns
    from ``_damped_columns`` (d is b, c >= +0.0), in order; the entropy of
    each state's eigenvalues if ``entropies``, else None.  The b == d
    rotation of ``_x_eigenvalues`` is replayed with its bits: c / |c| is
    1.0, and where c is b the column pass's two rows are equal."""
    isfinite = math.isfinite
    cs, sn = _EQUAL_DIAG_COS, _EQUAL_DIAG_SIN
    one_list = c_col is b_col
    out = [] if entropies else None
    for a, b, c, e in zip(a_col, b_col, c_col, e_col):
        if not (isfinite(a) and isfinite(b) and isfinite(c) and isfinite(e)):
            raise InputError("matrix entries must be finite")
        hi = lo = b
        if c > JACOBI_OFFDIAG_TOL:
            if one_list:
                u, v = cs * c, sn * c
                c11 = c21 = u + v
                c12 = c22 = u - v
            else:
                cb, sb, cc, sc = cs * b, sn * b, cs * c, sn * c
                c11, c12, c21, c22 = cb + sc, cc - sb, cc + sb, cb - sc
            hi = cs * c11 + sn * c21
            lo = cs * c22 - sn * c12
        tr = (a + b) + (b + e)
        # false exactly where _normalization raises, which gives the message
        if not (a >= EIGENVALUE_FLOOR and hi >= EIGENVALUE_FLOOR and lo >= EIGENVALUE_FLOOR
                and e >= EIGENVALUE_FLOOR and 0.0 < tr <= 1.0 + TRACE_TOL):
            _normalization(min(a, hi, lo, e), tr)
        if entropies:
            vals = [a, hi, lo, e]
            vals.sort(reverse=True)
            out.append(_spectrum_entropy(vals))
    return out


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

    A v <= 0 adds nothing, as in _xlog2x, so roundoff-negative values need
    no clip; skipping its += 0.0 leaves every bit as it is, since the total
    is never -0.0.  A total above zero gives +0.0: only rounding makes one,
    from a value a few ulp above 1 that the trace window lets through (the
    product-mode image of |00><00| at gamma = 1 has a = 1 + 2^-52), and an
    entropy is never negative.  A pure spectrum's total of 0.0 still gives
    -0.0.  A plain loop, not builtin sum: from Python 3.12 on sum
    compensates float sums, which moves the last bit of some entropies.
    """
    total = 0.0
    log2 = math.log2
    for v in vals:
        if v > 0.0:
            total += v * log2(v)
    return -total if total <= 0.0 else 0.0


def _x_concurrences(a_col, b_col, c_col, d_col, e_col) -> list:
    """The X-state concurrence 2 max(|c| - sqrt(a e), 0) (Yu and Eberly,
    QIC 7, 459) of each state of five columns of finite numbers, c real or
    complex, with the diagonal clamped at 0.0 as ``x_params_of`` clamps it,
    after the coherence bound |c| <= sqrt(b d) + 1e-9, the one check its
    callers have not made: ``_x_spectrum``'s checks (the sweep) and
    XStateParams' (``concurrence_x``).  The eigenvalue floor does not imply
    the bound: with b = 1e-8 and d = 0.5, |c| can pass sqrt(b d) by more
    than 1e-9 while the smallest eigenvalue stays above -1e-10.  (On a
    non-negative diagonal the clamps change only -0.0, to 0.0, where each
    product, root and difference they feed has the same value.)
    ``0.0 if v < 0.0 else v`` is max(v, 0.0), without the call."""
    sqrt = math.sqrt
    out = []
    for a, b, c, d, e in zip(a_col, b_col, c_col, d_col, e_col):
        _check_coherence(b if b > 0.0 else 0.0, c, d if d > 0.0 else 0.0)
        v = abs(c) - sqrt((a if a > 0.0 else 0.0) * (e if e > 0.0 else 0.0))
        out.append(2.0 * (0.0 if v < 0.0 else v))
    return out


def _x_spectrum_concurrence(a: float, b: float, c: complex, d: float, e: float) -> float:
    """``_x_concurrences`` of one state's five numbers."""
    return _x_concurrences((a,), (b,), (c,), (d,), (e,))[0]


def _x_concurrence_wootters(a: float, b: float, c: float, d: float, e: float) -> float:
    """``concurrence_wootters`` of ``from_matrix`` of the dense corner-free
    X state with real diagonal (a, b, d, e) and real inner coherence c,
    without building it, after ``_x_spectrum``'s checks, which are the
    caller's and all the matrix route makes; a sub-normalized state gives
    its raw value.

    The singular values of K = sqrt(rho) (sy x sy) sqrt(rho)* of such a
    state are known exactly: sqrt(a e) twice, sqrt(b d) + |c| and
    |sqrt(b d) - |c|| (Wootters, PRL 80, 2245; Yu and Eberly, QIC 7, 459),
    with the diagonal clamped at zero as ``linalg.spectrum_sqrt`` clamps
    the eigenvalues.  The value agrees with the matrix route's one-sided
    Jacobi on K to a few ulp.  It has the bits of max(0, s1 - s2 - s3 - s4)
    over the four sorted descending (v if v >= 0.0 else 0.0 is max(v, 0.0),
    -0.0 included): 0.0 where sqrt(a e) exceeds sqrt(b d) + |c|, and one of
    the sort's two other orders, as sqrt(b d) + |c| >= |sqrt(b d) - |c||.
    """
    corner = math.sqrt((a if a >= 0.0 else 0.0) * (e if e >= 0.0 else 0.0))
    inner = math.sqrt((b if b >= 0.0 else 0.0) * (d if d >= 0.0 else 0.0))
    r = abs(c)
    hi = inner + r
    if corner > hi:
        return 0.0
    lo = abs(inner - r)
    v = ((hi - corner) - corner) - lo if corner >= lo else ((hi - lo) - corner) - corner
    return v if v > 0.0 else 0.0


def _check_correlation_bound(largest: float) -> None:
    """Reject a correlation matrix whose largest |t_ij| exceeds 1 + 1e-9,
    or is NaN (the comparison is negated so that NaN fails it)."""
    if not largest <= 1.0 + 1e-9:
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

    T is diagonal, so its columns are already orthogonal: the one-sided
    Jacobi rotates nothing and reads each value as the column norm
    hypot(t_ii, 0, ...) = |t_ii|.
    """
    s = sorted(map(abs, _x_correlations(a, b, c, d, e)), reverse=True)
    _check_correlation_bound(s[0])
    return s


def _x_correlation_sum(a: float, b: float, c: float, d: float, e: float) -> float:
    """N, the singular-value sum ``fidelity_from_correlation`` reads, of the
    same X state, with its bits: the |t_ii| summed in descending order, as
    numpy sums ``correlation_singular_values``."""
    s0, s1, s2 = _x_singular_values(a, b, c, d, e)
    return (s0 + s1) + s2


def _x_fidelity(a: float, b: float, c: float, d: float, e: float) -> float:
    """``fidelity_from_correlation(correlation_matrix(rho)).fidelity`` of the
    same X state, with its bits and its rejection, without building it."""
    return _fidelity_value(_x_correlation_sum(a, b, c, d, e))


def _x_chsh(a: float, b: float, c: float, d: float, e: float) -> float:
    """M = s_1^2 + s_2^2, ``chsh_criterion``'s value from the two largest
    singular values, of the same X state, with its bits (the squares are
    taken by the same libm pow numpy's scalar power calls)."""
    s0, s1, _ = _x_singular_values(a, b, c, d, e)
    return s0 ** 2 + s1 ** 2


def _fidelity_value(n: float) -> float:
    """The optimal teleportation fidelity for the singular-value sum ``n``:
    (1 + n / 3) / 2 where the state is useful, n > 1 + 1e-12, and the
    classical 2/3 elsewhere."""
    return 0.5 * (1.0 + n / 3.0) if n > 1.0 + USEFULNESS_MARGIN else CLASSICAL_FIDELITY


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
    """``discord_x(rho).discord``, with its bits, for ``rho`` the
    ``from_matrix`` of the dense X matrix, given the state's eigenvalues
    ``vals`` as ``_x_spectrum`` returns them; the caller makes the
    unit-trace check.

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
    summed as np.trace sums a diagonal (a, b, d, e): (a + b) + (d + e).
    Where no row adds two inexact products, as for the generic and
    stabilizer witnesses, the value has the bits of ``witnesses.evaluate``.
    For w1 it has them where the matrix product rounds each product
    (OpenBLAS's kernels without fused multiply-adds, Prescott to
    Sandybridge); a kernel that fuses a multiply-add adds the two terms of
    a row with one rounding fewer, and the two agree to a few ulp.
    """
    w00, w11, w12, w21, w22, w33 = entries
    return (w00 * a + (w11 * b + w12 * c)) + ((w21 * c + w22 * d) + w33 * e)


def _closed_form_fidelity_p(p: float) -> tuple:
    """The factors of ``fidelity_ad_closed_form`` at one p, already checked:
    (1 - p, sqrt(3 p (p + 2)))."""
    return 1.0 - p, math.sqrt(3.0 * p * (p + 2.0))


def _closed_form_fidelity(p_factors: tuple, one_gs) -> list:
    """``fidelity_ad_closed_form`` at one p and each theta of a row, from
    the factors of p (``_closed_form_fidelity_p``) and the 1 - sin^2 theta
    of each theta (the head of its ``_theta_factors``)."""
    one_p, sq = p_factors
    return [0.5 + (one_p * one_g) / 9.0 + (one_g * sq) / 18.0 for one_g in one_gs]


def fidelity_ad_closed_form(p: float, theta: float) -> float:
    """The paper's closed-form optimal fidelity of the damped family,
    1/2 + (1-p)(1-g)/9 + (1-g) sqrt(3 p (p+2)) / 18 with g = sin^2(theta),
    taken in this factored form (the paper prints it as a sum of two square
    roots of expanded radicands; the tests hold the two to each other).

    It is Horodecki's fidelity (1 + N/3)/2 (PRA 60, 1888) with N read off
    the wrong matrix: the sum of the four singular values of Wootters'
    K = sqrt(rho) (sy x sy) sqrt(rho)* of the damped state, sqrt(a e)
    twice and sqrt(b d) +- |c| (PRL 80, 2245), in place of the singular
    values of its correlation matrix T; equivalently
    1/2 + (|c| + sqrt(a e))/3.  So it does NOT reduce to the undamped
    correlation-criterion fidelity at theta = 0: it gives 11/18 instead of
    7/9 at p = 0.  The headline report states the conflict.

    Computed in three parts, p checked first: the factors of p
    (``_closed_form_fidelity_p``), those of theta (``_theta_factors``, with
    its range check), and the cell from both (``_closed_form_fidelity``).
    A sweep takes each theta's factors once, each p's once, and the cell
    per grid point, with these bits.
    """
    p = _check_range("p", p, 0.0, 1.0)
    return _closed_form_fidelity(_closed_form_fidelity_p(p), _theta_factors(theta)[:1])[0]
