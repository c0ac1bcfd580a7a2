"""Dense complex linear algebra for small matrices (everything here is <= 8x8).

Matrices are plain numpy arrays of complex128; functions never mutate their
inputs and always return fresh arrays.  The eigensolver is a cyclic Jacobi
iteration working directly on the complex Hermitian matrix — at these
dimensions it is simple, unconditionally stable, and keeps the whole numeric
core free of LAPACK behaviour differences.  Its one core, ``_diagonalize``,
runs the row-cyclic sweeps on nested lists of Python complex, with or
without an eigenvector accumulator, and has two entries:

* ``_jacobi``, the full decomposition: ``hermitian_eigen`` validates and
  symmetrizes dense input and hands it over, while the GHZ/W family's
  X-form states are built from their five numbers and enter it directly
  (``states.DensityMatrix._from_x``), with the bits ``hermitian_eigen``
  gives for the dense matrix;
* ``_jacobi_eigenvalues``, eigenvalues only, one connected block of the
  nonzero pattern at a time, with ``_jacobi``'s bits; the spin-flip
  concurrence's 8x8 dilation takes this route.

The wrappers (``as_matrix``, ``kron``, ``trace``, ``is_hermitian``)
validate their arguments for callers outside the package.  Package code that
already holds a validated array (a ``DensityMatrix.matrix``, Kraus operators,
witness matrices, module constants) hands it straight to numpy instead.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass

import numpy as np

# _x_eigenvalues replays _jacobi on the family's X states; re-exported here
from ._xcore import EIGENVALUE_FLOOR, JACOBI_OFFDIAG_TOL, _x_eigenvalues
from .errors import InputError, NumericalError

HERMITICITY_TOL = 1e-10
# the sweep cap turns a (never observed) failure of the Jacobi iteration to
# converge into a hard error
JACOBI_MAX_SWEEPS = 100


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise InputError(f"expected a 2-d matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
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


@dataclass(frozen=True)
class Spectrum:
    """Spectral decomposition of a Hermitian matrix.

    ``eigenvalues`` are real and sorted descending; column k of
    ``eigenvectors`` is the (unit-norm) eigenvector paired with
    ``eigenvalues[k]``, so V diag(w) V^dagger reconstructs the input.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


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


def _jacobi(w: list) -> Spectrum:
    """Full spectral decomposition by ``_diagonalize``, which overwrites ``w``."""
    n = len(w)
    v = [[0j] * n for _ in range(n)]
    for i in range(n):
        v[i][i] = 1.0 + 0.0j
    _diagonalize(w, v)
    eigvals = [w[k][k].real for k in range(n)]
    # descending, ties in index order (reverse=True keeps the sort stable)
    order = sorted(range(n), key=eigvals.__getitem__, reverse=True)
    return Spectrum(
        eigenvalues=np.array([eigvals[k] for k in order]),
        eigenvectors=np.array([[row[k] for k in order] for row in v], dtype=complex),
    )


def _blocks(w: list) -> list:
    """The connected components of the nonzero pattern of ``w``, each an
    ascending list of indices, in order of their smallest index."""
    n = len(w)
    seen = [False] * n
    blocks = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        block = [start]
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if not seen[j] and (w[i][j] or w[j][i]):
                    seen[j] = True
                    block.append(j)
                    stack.append(j)
        blocks.append(sorted(block))
    return blocks


def _jacobi_eigenvalues(w: list) -> list:
    """Descending eigenvalues ``_jacobi`` finds for ``w``, bit for bit, as a
    list of floats, without eigenvectors; ``w`` is left unspecified.

    Runs ``_diagonalize`` on each connected block of the nonzero pattern
    on its own.  The values are those of the full run: a rotation inside
    one block writes to another block's entries only where both factors
    are zero, so those entries stay (signed) zeros and are never rotated;
    it touches no diagonal entry outside its pair; and the row-cyclic
    order within a block is unchanged.  A dense matrix is one block and
    runs as ``_jacobi`` does.
    """
    n = len(w)
    eigvals = [0.0] * n
    for block in _blocks(w):
        sub = w if len(block) == n else [[w[i][j] for j in block] for i in block]
        if len(block) > 1:
            _diagonalize(sub, None)
        for k, i in enumerate(block):
            eigvals[i] = sub[k][k].real
    # as _jacobi orders them: ties (+0.0 and -0.0) stay in index order
    return sorted(eigvals, reverse=True)


def hermitian_eigen(a) -> Spectrum:
    """Full spectral decomposition of a Hermitian matrix via cyclic Jacobi.

    Rotations run in row-cyclic order until a sweep finds no off-diagonal
    magnitude above 1e-12.  Raises InputError for non-Hermitian input
    (tolerance 1e-10) and NumericalError if 100 sweeps do not converge.
    """
    m = as_square(a)
    mh = m.conj().T
    if float(np.max(np.abs(m - mh))) > HERMITICITY_TOL:
        raise InputError("matrix is not Hermitian within 1e-10")
    return _jacobi(((m + mh) / 2.0).tolist())


def psd_sqrt(a) -> np.ndarray:
    """Hermitian square root S of a PSD matrix, S @ S == a.

    Eigenvalues in [-1e-10, 0) are clamped to zero; anything below the floor
    rejects the input as not positive semidefinite.
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
