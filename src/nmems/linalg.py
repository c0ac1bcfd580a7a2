"""Dense complex linear algebra for small matrices (everything here is <= 8x8).

Matrices are plain numpy arrays of complex128; functions never mutate their
inputs and always return fresh arrays.  The eigensolver is a cyclic Jacobi
iteration working directly on the complex Hermitian matrix — at these
dimensions it is simple, unconditionally stable, and keeps the whole numeric
core free of LAPACK behaviour differences.  Its one core, ``_diagonalize``,
runs the row-cyclic sweeps on nested lists of Python complex, with or
without an eigenvector accumulator; it lives in ``_xcore``, with no numpy,
and has two entries:

* ``_jacobi``, here, the full decomposition: ``hermitian_eigen`` validates
  and symmetrizes dense input and hands it over, while the GHZ/W family's
  X-form states are built from their five numbers and enter it directly
  (``states.DensityMatrix._from_x``), with the bits ``hermitian_eigen``
  gives for the dense matrix;
* ``_jacobi_eigenvalues``, eigenvalues only, one connected block of the
  nonzero pattern at a time, with ``_jacobi``'s bits; the spin-flip
  concurrence's 8x8 dilation takes this route, on both its matrix route
  and its scalar one.

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

# the Jacobi core lives in the scalar core, which runs it without numpy;
# _blocks, _jacobi_eigenvalues and _x_eigenvalues (which replays _jacobi on
# the family's X states) are re-exported here
from ._xcore import (
    EIGENVALUE_FLOOR,
    JACOBI_OFFDIAG_TOL,
    _blocks,
    _diagonalize,
    _jacobi_eigenvalues,
    _x_eigenvalues,
)
from .errors import InputError

HERMITICITY_TOL = 1e-10


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
