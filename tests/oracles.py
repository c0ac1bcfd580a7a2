"""Independent reference implementations used to check the library.

Everything here is deliberately written by the most literal route available
(triple loops, cofactor expansion, explicit index summation, hand-derived
closed forms for the GHZ/W-mixture family) and never calls back into the
code paths it is checking.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

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

def family_matrix(p: float) -> np.ndarray:
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = (p + 2.0) / 6.0
    z = (1.0 - p) / 3.0
    m[1, 1] = m[2, 2] = m[1, 2] = m[2, 1] = z
    m[3, 3] = p / 2.0
    return m


def damped_family_matrix(p: float, theta: float) -> np.ndarray:
    """family_matrix(p) with the inner block scaled by 1 - gamma and the
    |11><11| entry by (1 - gamma)^2, gamma = sin^2 theta."""
    gamma = math.sin(theta) ** 2
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = (p + 2.0) / 6.0
    z = (1.0 - p) / 3.0 * (1.0 - gamma)
    m[1, 1] = m[2, 2] = m[1, 2] = m[2, 1] = z
    m[3, 3] = p / 2.0 * (1.0 - gamma) ** 2
    return m


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
