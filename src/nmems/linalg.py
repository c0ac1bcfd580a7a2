"""Dense complex linear algebra for small matrices (the package's are at most
4x4).

Matrices are plain numpy arrays of complex128; functions never mutate their
inputs.  Spectra are shared and read-only: ``hermitian_eigen`` (and so
``psd_sqrt``) and ``DensityMatrix.from_matrix`` take theirs from one memo,
``_spectrum``, keyed on the bytes of the symmetrized matrix, so a matrix
that a state has already diagonalized is not diagonalized again; every
other result is a fresh array.  The matrix route has one eigen
entry and one singular-value entry, both on nested lists of Python complex
(scalar arithmetic beats numpy by a wide margin at these dimensions, and
keeps the whole numeric core free of LAPACK behaviour differences).

Eigenvalues come from ``_jacobi``, a cyclic Jacobi iteration working
directly on the complex Hermitian matrix.  Its core, ``_diagonalize``,
runs the row-cyclic sweeps; each rotation computes columns p and q of the
other rows and mirrors them into rows p and q by conjugation, since the
matrix stays exactly Hermitian.  It takes a matrix that
``_hermitian_part`` has validated and symmetrized once:
``hermitian_eigen`` and ``DensityMatrix.from_matrix`` run it through
``_spectrum``, and ``measures.mid_dephasing`` runs it directly on the
marginals of a validated state, which are exactly Hermitian.

Singular values come from Hestenes' one-sided Jacobi
(``_singular_values``), which orthogonalizes a matrix's columns and reads
the values off their norms, so it never squares them; the spin-flip
concurrence of ``measures.concurrence_wootters`` and the correlation
values of ``measures.correlation_singular_values`` take this route.  Both
iterations share the sweep cap ``JACOBI_MAX_SWEEPS``.

The scalar core (``_xcore``) runs no iteration: it replays the single
rotation ``_jacobi`` makes on a corner-free X state with a real coherence
on floats, with ``_jacobi``'s bits (``_x_eigenvalues``, after the 2x2
block formulas of ``_diagonalize``).

The wrappers (``as_matrix``, ``kron``, ``trace``, ``is_hermitian``)
validate their arguments for callers outside the package.  Package code that
already holds a validated array (a ``DensityMatrix.matrix``, Kraus operators,
witness matrices, module constants) hands it straight to numpy instead, and
forms Kronecker products of 2x2 operators with ``_kron_pairs``.
"""

from __future__ import annotations

import functools
import math
import operator
import string
import sys
from dataclasses import dataclass

import numpy as np

from ._xcore import EIGENVALUE_FLOOR, JACOBI_OFFDIAG_TOL
from .errors import InputError, NumericalError

HERMITICITY_TOL = 1e-10
# the sweep cap turns a (never observed) failure of the Jacobi iteration to
# converge into a hard error
JACOBI_MAX_SWEEPS = 100
# the one-sided Jacobi's stopping rule: (2 eps)^2, sqrt(n) eps for up to
# n = 4 columns, for the relative test, and eps^2 for the absolute floor
_EPS_SQUARED = sys.float_info.epsilon ** 2
_ORTHOGONALITY_TOL_SQUARED = 4.0 * _EPS_SQUARED


# below this modulus no sum of two entries' parts can overflow
_HALVE_FIRST = 2.0 ** 1023


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise InputError(f"expected a 2-d matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InputError("matrix entries must be finite")
    return m


def as_square(a) -> np.ndarray:
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise InputError(f"expected a square matrix, got shape {m.shape}")
    return m


def kron(a, b) -> np.ndarray:
    """Kronecker product; block (i, j) of the result is a[i, j] * b."""
    return np.kron(as_matrix(a), as_matrix(b))


def trace(a) -> complex:
    """Sum of diagonal entries of a square matrix."""
    return complex(np.trace(as_square(a)))


def is_hermitian(a, tol: float = HERMITICITY_TOL) -> bool:
    m = as_square(a)
    return float(np.max(np.abs(m - m.conj().T))) <= tol


def _hermitian_part(a) -> np.ndarray:
    """(m + m^dagger) / 2 of ``a`` as a fresh complex array, after the one
    shape, finiteness and Hermiticity (1e-10) check of a matrix to be
    diagonalized.

    Where an entry's modulus reaches 2^1023, so that m - m^dagger or
    m + m^dagger could overflow, m is halved first and the halves' residual
    held to 1e-10 / 2 (halving rounds only subnormal entries); elsewhere
    the bits are as they have always been.  The diagonal is exactly real,
    halved or not: z + conj(z) has imaginary part y - y = 0.0.
    """
    m = as_square(a)
    halve = float(np.abs(m).max()) >= _HALVE_FIRST
    if halve:
        m = m / 2.0
    mh = m.conj().T
    if float(np.abs(m - mh).max()) > (HERMITICITY_TOL / 2.0 if halve else HERMITICITY_TOL):
        raise InputError("matrix is not Hermitian within 1e-10")
    return m + mh if halve else (m + mh) / 2.0


@dataclass(frozen=True)
class Spectrum:
    """Spectral decomposition of a Hermitian matrix.

    ``eigenvalues`` are real and sorted descending; column k of
    ``eigenvectors`` is the (unit-norm) eigenvector paired with
    ``eigenvalues[k]``, so V diag(w) V^dagger reconstructs the input.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _diagonalize(w: list, v: list) -> int:
    """Cyclic Jacobi on a Hermitian matrix given as nested lists of Python
    complex, in place: ``w`` ends diagonal, and ``v`` accumulates the
    rotations.  Returns the number of rotations made.

    Each sweep visits the pairs in row-cyclic order and zeroes every w[p][q]
    whose magnitude exceeds 1e-12 with a unitary plane rotation.  The
    rotation updates columns p and q of every other row k, and sets row
    entries w[p][k] and w[q][k] to the conjugates of the new column entries,
    since ``w`` stays exactly Hermitian.  The 2x2 block (p, q) takes the
    column pass and then the row pass; its off-diagonal pair is then exactly
    zero and its diagonal real, which ``_xcore._x_eigenvalues`` replays.
    The first sweep that rotates nothing ends the iteration.  The caller
    guarantees ``w`` is exactly Hermitian with finite entries.  Scalar
    arithmetic on Python complex beats numpy by a wide margin at these
    dimensions.
    """
    n = len(w)
    rotations = 0
    for _ in range(JACOBI_MAX_SWEEPS):
        swept = rotations
        for p in range(n - 1):
            rp = w[p]
            for q in range(p + 1, n):
                apq = rp[q]
                r = abs(apq)
                if r <= JACOBI_OFFDIAG_TOL:
                    continue
                rq = w[q]
                app = rp[p]
                aqp = rq[p]
                aqq = rq[q]
                phase = apq / r
                theta = 0.5 * math.atan2(2.0 * r, app.real - aqq.real)
                c = math.cos(theta)
                s = math.sin(theta)
                s_ph = s * phase
                s_cph = s * phase.conjugate()
                for k in range(n):
                    if k != p and k != q:
                        row = w[k]
                        wp = row[p]
                        wq = row[q]
                        row[p] = wkp = c * wp + s_cph * wq
                        row[q] = wkq = -s_ph * wp + c * wq
                        rp[k] = wkp.conjugate()
                        rq[k] = wkq.conjugate()
                # the block: its column pass, then the row pass's diagonal
                bpp = c * app + s_cph * apq
                bpq = -s_ph * app + c * apq
                bqp = c * aqp + s_cph * aqq
                bqq = -s_ph * aqp + c * aqq
                rp[p] = complex((c * bpp + s_ph * bqp).real)
                rq[q] = complex((-s_cph * bpq + c * bqq).real)
                # the rotation annihilates (p, q) exactly; drop the residual dust
                rp[q] = 0.0
                rq[p] = 0.0
                rotations += 1
                for row in v:
                    vp = row[p]
                    vq = row[q]
                    row[p] = c * vp + s_cph * vq
                    row[q] = -s_ph * vp + c * vq
        if rotations == swept:
            return rotations
    raise NumericalError(
        f"Jacobi iteration did not converge in {JACOBI_MAX_SWEEPS} sweeps"
    )


def _jacobi(w: list) -> Spectrum:
    """Full spectral decomposition by ``_diagonalize``, which overwrites
    ``w``; NumericalError if an eigenvalue is not finite."""
    n = len(w)
    v = [[0j] * n for _ in range(n)]
    for i in range(n):
        v[i][i] = 1.0 + 0.0j
    _diagonalize(w, v)
    eigvals = [w[k][k].real for k in range(n)]
    # finite entries can still have an eigenvalue beyond the float range
    if not all(map(math.isfinite, eigvals)):
        raise NumericalError("an eigenvalue overflows the float range")
    # descending, ties in index order (reverse=True keeps the sort stable)
    order = sorted(range(n), key=eigvals.__getitem__, reverse=True)
    return Spectrum(
        eigenvalues=np.array([eigvals[k] for k in order]),
        eigenvectors=np.array([[row[k] for k in order] for row in v], dtype=complex),
    )


@functools.lru_cache(maxsize=256)
def _spectrum(key: bytes) -> Spectrum:
    """``_jacobi`` of the square complex matrix whose bytes are ``key``,
    with read-only arrays; the 256 most recent matrices are kept.

    ``key`` is ``h.tobytes()`` of a matrix ``h`` that ``_hermitian_part``
    returned, so every check has run before the lookup.  The bits are those
    of a fresh ``_jacobi(h.tolist())``: the iteration is deterministic on
    the same Python complex values, and a stored ``DensityMatrix.matrix``
    is its own Hermitian part, byte for byte, so ``psd_sqrt`` and
    ``hermitian_eigen`` of it find the spectrum ``from_matrix`` took.
    Entries that differ only in the sign of a zero are different keys.
    """
    n = math.isqrt(len(key) // 16)
    spec = _jacobi(np.frombuffer(key, dtype=complex).reshape(n, n).tolist())
    spec.eigenvalues.setflags(write=False)
    spec.eigenvectors.setflags(write=False)
    return spec


def _inner(x: list, y: list) -> complex:
    """x^H y of two lists of Python complex, summed in index order."""
    return sum(map(operator.mul, map(complex.conjugate, x), y))


def _singular_values(a: np.ndarray) -> list:
    """Singular values, descending, of the finite 2-d array ``a``, by
    Hestenes' one-sided Jacobi on its columns as lists of Python complex.

    Each sweep visits the column pairs in cyclic order and rotates a pair
    with g = a_i^H a_j so that the two columns become orthogonal, while |g|
    exceeds both 2 eps ||a_i|| ||a_j|| (the relative rule of Demmel and
    Veselic, so tiny singular values keep their relative accuracy) and
    eps^2 ||A||_F^2 (an absolute floor: a column of rounding dust that lies
    along another never passes the relative rule).  The first sweep that
    rotates nothing ends the iteration, and the singular values are the
    column norms.  An all-zero matrix rotates nothing and gives zeros.
    """
    cols = np.asarray(a, dtype=complex).T.tolist()
    n = len(cols)
    # squared column norms, recomputed from the columns after each rotation
    norms = [_inner(col, col).real for col in cols]
    floor = _EPS_SQUARED * sum(norms)
    for _ in range(JACOBI_MAX_SWEEPS):
        rotated = False
        for i in range(n - 1):
            for j in range(i + 1, n):
                ai = cols[i]
                aj = cols[j]
                g = _inner(ai, aj)
                r = abs(g)
                if r <= floor or r * r <= _ORTHOGONALITY_TOL_SQUARED * norms[i] * norms[j]:
                    continue
                # the real rotation that diagonalizes [[|a_i|^2, r], [r, |a_j|^2]]
                # (Golub and Van Loan's sym.schur2), after a_j *= conj(g) / r
                zeta = (norms[j] - norms[i]) / (2.0 * r)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                c = 1.0 / math.hypot(1.0, t)
                s = c * t
                phase = g.conjugate() / r
                s_ph = s * phase
                c_ph = c * phase
                ai, aj = ([c * x - s_ph * y for x, y in zip(ai, aj)],
                          [s * x + c_ph * y for x, y in zip(ai, aj)])
                cols[i] = ai
                cols[j] = aj
                norms[i] = _inner(ai, ai).real
                norms[j] = _inner(aj, aj).real
                rotated = True
        if not rotated:
            # hypot scales and rounds each norm more closely than the sums
            return sorted((math.hypot(*[v for x in col for v in (x.real, x.imag)])
                           for col in cols), reverse=True)
    raise NumericalError(
        f"Jacobi iteration did not converge in {JACOBI_MAX_SWEEPS} sweeps"
    )


def _kron_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker products of the trailing 2-d blocks of ``a`` and ``b``,
    broadcast over their leading axes, in one numpy call for the whole
    stack: entry [..., rb i + k, cb j + l] is the one complex product
    a[..., i, j] * b[..., k, l], as ``np.kron`` forms it for a single pair."""
    (ra, ca), (rb, cb) = a.shape[-2:], b.shape[-2:]
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(prod.shape[:-4] + (ra * rb, ca * cb))


def hermitian_eigen(a) -> Spectrum:
    """Full spectral decomposition of a Hermitian matrix via cyclic Jacobi.

    Rotations run in row-cyclic order until a sweep finds no off-diagonal
    magnitude above 1e-12.  Raises InputError for non-Hermitian input
    (tolerance 1e-10) and NumericalError if 100 sweeps do not converge.
    The input is checked on every call; the spectrum of (a + a^dagger) / 2
    is memoized on its bytes and shared, so its arrays are read-only.
    """
    return _spectrum(_hermitian_part(a).tobytes())


def psd_sqrt(a) -> np.ndarray:
    """Hermitian square root S of a PSD matrix, S @ S == a.

    Eigenvalues in [-1e-10, 0) are clamped to zero; anything below the floor
    rejects the input as not positive semidefinite.  The spectrum comes
    from ``hermitian_eigen``, so the root of a ``DensityMatrix.matrix``
    reuses the one its state took; the checks run on every call, and the
    root is a fresh array.
    """
    spec = hermitian_eigen(a)
    if float(spec.eigenvalues.min()) < EIGENVALUE_FLOOR:
        raise InputError(
            f"matrix has eigenvalue {spec.eigenvalues.min():.3e} below the PSD floor"
        )
    root = spectrum_sqrt(spec)
    return (root + root.conj().T) / 2.0


def spectrum_sqrt(spec: Spectrum) -> np.ndarray:
    """Hermitian square root V diag(sqrt(w)) V^dagger of a spectral
    decomposition.  Negative eigenvalues are clamped to zero, so a caller
    that must reject indefinite input checks the spectrum first."""
    vals = np.sqrt(np.clip(spec.eigenvalues, 0.0, None))
    return (spec.eigenvectors * vals) @ spec.eigenvectors.conj().T


def partial_trace(a, dims, keep) -> np.ndarray:
    """Trace out subsystems of a square matrix on a tensor-product space.

    ``dims`` lists the subsystem dimensions (their product must equal the
    matrix dimension) and ``keep`` selects which subsystems survive, by
    index.  Kept subsystems stay in their original order.
    """
    m = as_square(a)
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise InputError(f"invalid subsystem dimensions {dims}")
    if math.prod(dims) != m.shape[0]:
        raise InputError(
            f"product of dims {dims} does not match matrix dimension {m.shape[0]}"
        )
    if isinstance(keep, int):
        keep = (keep,)
    keep = tuple(sorted({int(k) for k in keep}))
    if not keep:
        raise InputError("keep must name at least one subsystem")
    if any(k < 0 or k >= len(dims) for k in keep):
        raise InputError(f"keep indices {keep} out of range for {len(dims)} subsystems")

    tensor = m.reshape(dims + dims)
    letters = iter(string.ascii_lowercase)
    row, col, out_row, out_col = [], [], [], []
    for k in range(len(dims)):
        if k in keep:
            r, c = next(letters), next(letters)
            row.append(r)
            col.append(c)
            out_row.append(r)
            out_col.append(c)
        else:
            s = next(letters)
            row.append(s)
            col.append(s)
    subscript = "".join(row + col) + "->" + "".join(out_row + out_col)
    reduced = np.einsum(subscript, tensor)
    d_keep = math.prod(dims[k] for k in keep)
    return reduced.reshape(d_keep, d_keep)
