"""Independent reference implementations used to check the library.

Everything here is deliberately written by the most literal route available
(triple loops, cofactor expansion, explicit index summation, hand-derived
closed forms for the GHZ/W-mixture family) and never calls back into the
code paths it is checking.
"""

from __future__ import annotations

import itertools
import math
import sys

import numpy as np

from nmems.errors import NumericalError

SQRT5 = math.sqrt(5.0)


# ---------------------------------------------------------------------------
# elementary matrix oracles

def naive_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product by its block definition."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def brute_partial_trace(m: np.ndarray, dims, keep) -> np.ndarray:
    """Partial trace by explicit summation over traced multi-indices."""
    dims = tuple(dims)
    keep = tuple(sorted(set(keep)))
    traced = tuple(k for k in range(len(dims)) if k not in keep)
    kept_dims = [dims[k] for k in keep]
    traced_dims = [dims[k] for k in traced]
    d_keep = int(np.prod(kept_dims)) if kept_dims else 1

    def flat(kept_idx, traced_idx):
        full = [0] * len(dims)
        for pos, k in enumerate(keep):
            full[k] = kept_idx[pos]
        for pos, k in enumerate(traced):
            full[k] = traced_idx[pos]
        out = 0
        for k, d in zip(full, dims):
            out = out * d + k
        return out

    out = np.zeros((d_keep, d_keep), dtype=complex)
    kept_ranges = [range(d) for d in kept_dims]
    traced_ranges = [range(d) for d in traced_dims]
    for row_pos, row_idx in enumerate(itertools.product(*kept_ranges)):
        for col_pos, col_idx in enumerate(itertools.product(*kept_ranges)):
            acc = 0j
            for traced_idx in itertools.product(*traced_ranges):
                acc += m[flat(row_idx, traced_idx), flat(col_idx, traced_idx)]
            out[row_pos, col_pos] = acc
    return out


# ---------------------------------------------------------------------------
# characteristic polynomial by determinant expansion

def _poly_mul(a, b):
    out = [0j] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _poly_add(a, b):
    n = max(len(a), len(b))
    return [
        (a[i] if i < len(a) else 0j) + (b[i] if i < len(b) else 0j)
        for i in range(n)
    ]


def char_poly_coeffs(m: np.ndarray):
    """Coefficients (ascending) of det(m - x I) via cofactor expansion with
    degree-1 polynomial entries."""
    n = m.shape[0]
    entries = [
        [
            [complex(m[i, j]), -1.0 + 0j] if i == j else [complex(m[i, j])]
            for j in range(n)
        ]
        for i in range(n)
    ]

    def det(rows, cols):
        if len(rows) == 1:
            return entries[rows[0]][cols[0]]
        total = [0j]
        r = rows[0]
        for k, c in enumerate(cols):
            minor = det(rows[1:], cols[:k] + cols[k + 1:])
            term = _poly_mul(entries[r][c], minor)
            if k % 2:
                term = [-t for t in term]
            total = _poly_add(total, term)
        return total

    return det(tuple(range(n)), tuple(range(n)))


def char_poly_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix as roots of its characteristic
    polynomial, descending."""
    coeffs = char_poly_coeffs(m)
    roots = np.roots(np.array(coeffs[::-1]))
    return np.sort(roots.real)[::-1]


# ---------------------------------------------------------------------------
# entropy helpers

def xlog2x(v: float) -> float:
    return v * math.log2(v) if v > 0.0 else 0.0


def entropy_of(vals) -> float:
    return -sum(xlog2x(float(v)) for v in vals)


def binary_entropy(x: float) -> float:
    return -xlog2x(x) - xlog2x(1.0 - x)


# ---------------------------------------------------------------------------
# hand-derived closed forms for the GHZ/W-mixture family

def x_matrix(a, b, c, d, e) -> np.ndarray:
    """The dense corner-free X matrix with diagonal (a, b, d, e) and inner
    coherence rho[1, 2] = c, rho[2, 1] = conj(c)."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0], m[1, 1], m[2, 2], m[3, 3] = a, b, d, e
    m[1, 2] = c
    m[2, 1] = np.conj(c)
    return m


def family_matrix(p: float) -> np.ndarray:
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = (p + 2.0) / 6.0
    z = (1.0 - p) / 3.0
    m[1, 1] = m[2, 2] = m[1, 2] = m[2, 1] = z
    m[3, 3] = p / 2.0
    return m


def damped_family_x(p: float, theta: float) -> tuple:
    """(a, b, c, d, e) of family_matrix(p) with the inner block scaled by
    1 - gamma and the |11><11| entry by (1 - gamma)^2, gamma = sin^2 theta."""
    gamma = math.sin(theta) ** 2
    z = (1.0 - p) / 3.0 * (1.0 - gamma)
    return (p + 2.0) / 6.0, z, z, z, p / 2.0 * (1.0 - gamma) ** 2


def damped_family_matrix(p: float, theta: float) -> np.ndarray:
    """The dense damped_family_x(p, theta)."""
    return x_matrix(*damped_family_x(p, theta))


def family_eigenvalues(p: float) -> list:
    """{(p+2)/6, 2(1-p)/3, p/2, 0}: the inner block [[z, z], [z, z]] has
    eigenvalues 2z and 0."""
    return sorted([(p + 2.0) / 6.0, 2.0 * (1.0 - p) / 3.0, p / 2.0, 0.0],
                  reverse=True)


def damped_eigenvalues(p: float, gamma: float) -> list:
    return sorted(
        [
            (p + 2.0) / 6.0,
            2.0 * (1.0 - p) / 3.0 * (1.0 - gamma),
            p / 2.0 * (1.0 - gamma) ** 2,
            0.0,
        ],
        reverse=True,
    )


def family_entropy(p: float) -> float:
    return entropy_of(family_eigenvalues(p))


def damped_entropy(p: float, gamma: float) -> float:
    return entropy_of(damped_eigenvalues(p, gamma))


def family_concurrence(p: float) -> float:
    return 2.0 * max((1.0 - p) / 3.0 - math.sqrt(p * (p + 2.0) / 12.0), 0.0)


def family_fidelity(p: float) -> float:
    """(7 - 4p)/9 below the usefulness edge, classical 2/3 above it."""
    return (7.0 - 4.0 * p) / 9.0 if p < 0.25 else 2.0 / 3.0


def spin_flip_fidelity(a, b, c, d, e) -> float:
    """(1 + sum_i s_i / 3) / 2 over the four singular values s_i of
    K = sqrt(rho) (sy x sy) sqrt(rho)* of the X state, sqrt(a e) twice and
    sqrt(b d) +- |c|: Horodecki's teleportation fidelity with K's values in
    place of the correlation matrix's, which is what the paper's closed-form
    damped fidelity evaluates."""
    corner = math.sqrt(a * e)
    inner = math.sqrt(b * d)
    r = abs(c)
    return (1.0 + (corner + corner + (inner + r) + abs(inner - r)) / 3.0) / 2.0


def closed_form_fidelity_long(p: float, theta: float) -> tuple:
    """(value, bound): the paper's damped fidelity as it prints it,
    1/2 + sqrt(rad1)/9 + sqrt(rad2)/18 with the radicands expanded in
    powers of p and s2 = sin^2 theta, each summed correctly rounded by
    fsum, and a bound on the value's distance from the exact
    1/2 + (1-p)(1-s2)/9 + (1-s2) sqrt(3p(p+2))/18.

    rad1 = (1-p)^2 (1-s2)^2 and rad2 = 3p(p+2) (1-s2)^2 exactly, so the two
    forms are one algebraic expression; near a zero radicand the square
    root turns the radicand's rounding into up to about 1e-8, which
    sqrt_rounding bounds.
    """
    s2 = math.sin(theta) ** 2
    s4 = s2 * s2
    terms1 = (s4 * p * p, -2.0 * s4 * p, s4, -2.0 * s2 * p * p, 4.0 * s2 * p,
              -2.0 * s2, p * p, -2.0 * p, 1.0)
    terms2 = (3.0 * s4 * p * p, 6.0 * s4 * p, -6.0 * s2 * p * p, -12.0 * s2 * p,
              3.0 * p * p, 6.0 * p)
    rad1 = math.fsum(terms1)
    rad2 = math.fsum(terms2)
    value = 0.5 + math.sqrt(max(rad1, 0.0)) / 9.0 + math.sqrt(max(rad2, 0.0)) / 18.0
    root1 = (1.0 - p) * (1.0 - s2)
    root2 = (1.0 - s2) * math.sqrt(3.0 * p * (p + 2.0))
    bound = (sqrt_rounding(terms1, rad1, root1) / 9.0
             + sqrt_rounding(terms2, rad2, root2) / 18.0)
    return value, bound


def sqrt_rounding(terms: tuple, rad: float, root: float) -> float:
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


def family_q1(p: float) -> float:
    """Spectral discord branch, assembled from binary entropies by hand:
    -t log t + y log y + r log r + H(t1) with t = (4-p)/6, y = 2(1-p)/3,
    r = p/2, t1 = 1/2 + (1-p) sqrt(5)/6."""
    t = (4.0 - p) / 6.0
    y = 2.0 * (1.0 - p) / 3.0
    r = p / 2.0
    t1 = 0.5 + (1.0 - p) * SQRT5 / 6.0
    return -xlog2x(t) + xlog2x(y) + xlog2x(r) + binary_entropy(t1)


def family_q2(p: float) -> float:
    """Diagonal discord branch; collapses to 2(1-p)/3 for this family."""
    return 2.0 * (1.0 - p) / 3.0


def family_discord(p: float) -> float:
    return min(family_q1(p), family_q2(p))


# ---------------------------------------------------------------------------
# discord by direct minimization over projective measurements

_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _bits(vals: np.ndarray) -> np.ndarray:
    """-sum v log2 v over the last axis, with 0 log 0 == 0."""
    v = np.clip(vals, 0.0, None)
    return -np.sum(np.where(v > 0.0, v * np.log2(np.where(v > 0.0, v, 1.0)), 0.0), axis=-1)


def _conditional_entropy(rho: np.ndarray, measured: int, polar, azimuth) -> np.ndarray:
    """sum_k p_k S(other qubit | outcome k) for the projective measurement
    along each Bloch direction (polar, azimuth) on qubit ``measured``."""
    n = np.stack(
        [np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth), np.cos(polar)],
        axis=-1,
    )
    n_sigma = np.einsum("...i,ijk->...jk", n, _PAULI)
    r = rho.reshape(2, 2, 2, 2)  # r[a, b, a', b']
    total = 0.0
    for sign in (1.0, -1.0):
        proj = (np.eye(2) + sign * n_sigma) / 2.0
        if measured == 0:
            cond = np.einsum("abcd,...ca->...bd", r, proj)
        else:
            cond = np.einsum("abcd,...db->...ac", r, proj)
        prob = np.trace(cond, axis1=-2, axis2=-1).real
        vals = np.linalg.eigvalsh(cond)
        # p S(cond / p) = -sum l log2 l + p log2 p
        total = total + _bits(vals) - _bits(prob[..., None])
    return total


def brute_discord(rho: np.ndarray, measured: int) -> float:
    """Quantum discord with a projective measurement on qubit ``measured``:
    S(rho_measured) - S(rho) + min over Bloch directions of the conditional
    entropy.  The minimum is taken on a coarse (polar, azimuth) grid, then
    refined by a shrinking 5 x 5 pattern search around the best point."""
    polar, azimuth = np.meshgrid(
        np.linspace(0.0, math.pi, 25), np.linspace(0.0, 2.0 * math.pi, 48, endpoint=False)
    )
    cond = _conditional_entropy(rho, measured, polar, azimuth)
    k = np.unravel_index(np.argmin(cond), cond.shape)
    best_t, best_f, best = polar[k], azimuth[k], cond[k]
    step = math.pi / 24
    offsets = np.linspace(-1.0, 1.0, 5)
    for _ in range(40):
        t, f = np.meshgrid(best_t + step * offsets, best_f + step * offsets)
        cond = _conditional_entropy(rho, measured, t, f)
        k = np.unravel_index(np.argmin(cond), cond.shape)
        if cond[k] < best:
            best_t, best_f, best = t[k], f[k], cond[k]
        step /= 2.0
    r = rho.reshape(2, 2, 2, 2)
    marginal = np.einsum("abcb->ac", r) if measured == 0 else np.einsum("abad->bd", r)
    return float(
        _bits(np.linalg.eigvalsh(marginal)) - _bits(np.linalg.eigvalsh(rho)) + best
    )


# ---------------------------------------------------------------------------
# the two-sided Jacobi sweep: every rotation recomputes rows p and q in full,
# as the library's eigensolver did before it mirrored them by conjugation;
# _rotate and _diagonalize are kept verbatim as its byte oracle

JACOBI_OFFDIAG_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100


def _rotate(w: list, v: list | None, p: int, q: int, n: int, apq: complex,
            r: float) -> None:
    """Zero w[p][q] = apq (and w[q][p]), |apq| = r > 0, with a unitary plane
    rotation, in place, and apply it to the eigenvector accumulator ``v``
    unless that is None.

    ``w`` and ``v`` are nested lists of Python complex; scalar arithmetic
    beats numpy by a wide margin at these dimensions.
    """
    phase = apq / r
    cphase = phase.conjugate()
    theta = 0.5 * math.atan2(2.0 * r, w[p][p].real - w[q][q].real)
    c = math.cos(theta)
    s = math.sin(theta)
    s_ph = s * phase
    s_cph = s * cphase

    for k in range(n):
        row = w[k]
        wp = row[p]
        wq = row[q]
        row[p] = c * wp + s_cph * wq
        row[q] = -s_ph * wp + c * wq
    rp = w[p]
    rq = w[q]
    for k in range(n):
        wp = rp[k]
        wq = rq[k]
        rp[k] = c * wp + s_ph * wq
        rq[k] = -s_cph * wp + c * wq
    # the rotation annihilates (p, q) exactly; drop the residual dust
    rp[q] = 0.0
    rq[p] = 0.0
    rp[p] = complex(rp[p].real)
    rq[q] = complex(rq[q].real)

    if v is None:
        return
    for k in range(n):
        row = v[k]
        vp = row[p]
        vq = row[q]
        row[p] = c * vp + s_cph * vq
        row[q] = -s_ph * vp + c * vq


def _diagonalize(w: list, v: list | None) -> None:
    """Cyclic Jacobi on a Hermitian matrix given as nested lists of Python
    complex, in place: ``w`` ends diagonal, and ``v`` (None for no
    eigenvectors) accumulates the rotations.

    Each sweep visits the pairs in row-cyclic order and rotates every one
    whose off-diagonal magnitude exceeds 1e-12; the first sweep that rotates
    nothing ends the iteration.  The caller guarantees ``w`` is exactly
    Hermitian with finite entries.
    """
    n = len(w)
    for _ in range(JACOBI_MAX_SWEEPS):
        rotated = False
        for p in range(n - 1):
            row = w[p]
            for q in range(p + 1, n):
                apq = row[q]
                r = abs(apq)
                if r > JACOBI_OFFDIAG_TOL:
                    _rotate(w, v, p, q, n, apq, r)
                    rotated = True
        if not rotated:
            return
    raise NumericalError(
        f"Jacobi iteration did not converge in {JACOBI_MAX_SWEEPS} sweeps"
    )


def two_sided_jacobi(w: list) -> tuple:
    """(eigenvalues, eigenvectors) of the exactly Hermitian nested list
    ``w`` by the two-sided sweep, overwriting ``w``; sorted descending with
    ties in index order, as the library sorts."""
    n = len(w)
    v = [[0j] * n for _ in range(n)]
    for i in range(n):
        v[i][i] = 1.0 + 0.0j
    _diagonalize(w, v)
    eigvals = [w[k][k].real for k in range(n)]
    order = sorted(range(n), key=eigvals.__getitem__, reverse=True)
    return (np.array([eigvals[k] for k in order]),
            np.array([[row[k] for k in order] for row in v], dtype=complex))


# ---------------------------------------------------------------------------
# random inputs

def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0


def random_density(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_x_state(rng: np.random.Generator) -> np.ndarray:
    """Random valid corner-free X state: Dirichlet-style diagonal plus an
    inner coherence bounded by sqrt(b d)."""
    w = rng.random(4)
    w = w / w.sum()
    a, b, d, e = (float(v) for v in w)
    c = rng.random() * math.sqrt(b * d) * np.exp(2j * math.pi * rng.random())
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = a
    m[1, 1] = b
    m[2, 2] = d
    m[3, 3] = e
    m[1, 2] = c
    m[2, 1] = np.conj(c)
    return m
