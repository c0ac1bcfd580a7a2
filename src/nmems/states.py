"""State constructors: GHZ/W reductions, the mixed two-qubit family, and its
amplitude-damped image.

The family interpolates between the two-qubit reduction of the GHZ state
(separable) and of the W state (entangled):

    rho(p) = p * Tr_c |GHZ><GHZ| + (1 - p) * Tr_c |W><W|,   0 <= p <= 1

In the computational basis |00>, |01>, |10>, |11> this is the X-form matrix
with diagonal ((p+2)/6, (1-p)/3, (1-p)/3, p/2) and inner coherences (1-p)/3.
Every constructor validates its output as a density matrix and records
whether the trace is unity or has been drained by damping.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass, field

import numpy as np

from . import linalg
# the checks and five-number functions the constructors share with the
# scalar core; SUB_NORMALIZED is re-exported here
from ._xcore import (
    GHZ_AMPLITUDE,
    MODE_CLOSED_FORM,
    SUB_NORMALIZED,
    UNIT,
    W_AMPLITUDE,
    _check_coherence,
    _check_family,
    _check_range,
    _family_x,
    _mode_damped_x,
    _normalization,
)
from .errors import InputError

X_STRUCTURE_TOL = 1e-10
# below this bound on n times a state's largest |eigenvalue| no partial sum
# of its diagonal can overflow
_TRACE_FITS = 2.0 ** 1023


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated quantum state: Hermitian, PSD, with a tagged trace.

    The spectral decomposition computed during validation is kept on the
    instance so downstream measures never re-diagonalize.  It is the
    read-only ``Spectrum`` of ``linalg``'s memo, shared with every state,
    ``hermitian_eigen`` and ``psd_sqrt`` call on the same matrix, so
    ``psd_sqrt(rho.matrix)`` does not diagonalize again.  So are, once a
    measure first asks for them, the singular values of its correlation
    matrix (read-only), which the teleportation fidelity and the CHSH
    criterion share.  ``from_matrix`` is the one validator: dense input and
    the family's X states (``nmems``, ``nmems_ad``, from their five numbers)
    all go through it.
    """

    matrix: np.ndarray
    normalization: str
    trace_value: float
    spectrum: linalg.Spectrum
    _correlation_values: np.ndarray | None = field(default=None, init=False, repr=False)

    @classmethod
    def from_matrix(cls, m) -> "DensityMatrix":
        """Validate ``m`` and wrap it, deriving the normalization tag.

        Rejects matrices that are not Hermitian (1e-10), have an eigenvalue
        below -1e-10, or whose trace is outside (0, 1 + 1e-10].
        """
        # the one shape, finiteness and Hermiticity check; the symmetrized
        # matrix it returns is both diagonalized (through the spectrum memo,
        # after the check) and stored
        m = linalg._hermitian_part(m)
        spec = linalg._spectrum(m.tobytes())
        lowest = float(spec.eigenvalues[-1])  # sorted descending
        # the Hermitian part's diagonal is exactly real, so is its trace; its
        # entries are bounded by the largest |eigenvalue|, so the sum can
        # overflow (to an inf the trace check rejects) only past this bound
        if max(float(spec.eigenvalues[0]), -lowest) * len(m) < _TRACE_FITS:
            tr = complex(m.trace()).real
        else:
            with np.errstate(over="ignore"):
                tr = complex(m.trace()).real
        tag = _normalization(lowest, tr)
        m.setflags(write=False)
        return cls(matrix=m, normalization=tag, trace_value=tr, spectrum=spec)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def is_unit(self) -> bool:
        return self.normalization == UNIT

    def renormalized(self) -> "DensityMatrix":
        """Rescale to unit trace (identity on already-unit states)."""
        if self.is_unit():
            return self
        return DensityMatrix.from_matrix(self.matrix / self.trace_value)


def _check_x_params(a: float, b: float, c: complex, d: float, e: float) -> None:
    """XStateParams' checks: finite entries, a non-negative diagonal and
    |c| <= sqrt(b d), each checked in order, in one pass."""
    isfinite = cmath.isfinite
    if not (isfinite(a) and isfinite(b) and isfinite(c) and isfinite(d) and isfinite(e)):
        raise InputError("X-state parameters must be finite")
    if a < 0.0 or b < 0.0 or d < 0.0 or e < 0.0:
        name = "a" if a < 0.0 else "b" if b < 0.0 else "d" if d < 0.0 else "e"
        raise InputError(f"X-state parameter {name} must be non-negative")
    _check_coherence(b, c, d)


@dataclass(frozen=True)
class XStateParams:
    """The five parameters (a, b, c, d, e) of an X-form state whose only
    coherence is the inner anti-diagonal entry c = rho[1, 2]."""

    a: float
    b: float
    c: complex
    d: float
    e: float

    def __post_init__(self):
        _check_x_params(self.a, self.b, self.c, self.d, self.e)


def ghz_state() -> np.ndarray:
    """(|000> + |111>) / sqrt(2) as an 8x1 column vector."""
    v = np.zeros((8, 1), dtype=complex)
    v[0, 0] = GHZ_AMPLITUDE
    v[7, 0] = GHZ_AMPLITUDE
    return v


def w_state() -> np.ndarray:
    """(|001> + |010> + |100>) / sqrt(3) as an 8x1 column vector."""
    v = np.zeros((8, 1), dtype=complex)
    v[1, 0] = W_AMPLITUDE
    v[2, 0] = W_AMPLITUDE
    v[4, 0] = W_AMPLITUDE
    return v


def projector(vec) -> np.ndarray:
    """|v><v| for a column vector."""
    vec = linalg.as_matrix(vec)
    if vec.shape[1] != 1:
        raise InputError("projector expects a column vector")
    return vec @ vec.conj().T


@functools.lru_cache(maxsize=1)
def ghz_reduced() -> np.ndarray:
    """Two-qubit reduction of the GHZ projector (qubit c traced out)."""
    m = linalg.partial_trace(projector(ghz_state()), (2, 2, 2), (0, 1))
    m.setflags(write=False)
    return m


@functools.lru_cache(maxsize=1)
def w_reduced() -> np.ndarray:
    """Two-qubit reduction of the W projector (qubit c traced out)."""
    m = linalg.partial_trace(projector(w_state()), (2, 2, 2), (0, 1))
    m.setflags(write=False)
    return m


def _x_matrix(a: float, b: float, c: float, d: float, e: float) -> np.ndarray:
    """The dense corner-free X matrix with real diagonal (a, b, d, e) and
    real inner coherence c = rho[1, 2] = rho[2, 1]."""
    z = 0.0
    return np.array([[a, z, z, z], [z, b, c, z], [z, c, d, z], [z, z, z, e]],
                    dtype=complex)


@functools.lru_cache(maxsize=256)
def nmems(p: float) -> DensityMatrix:
    """The GHZ/W-mixture state at mixing parameter p.

    Built from the closed-form X parameters and checked against the
    mixture p Tr_c |GHZ><GHZ| + (1 - p) Tr_c |W><W|: the two constructions
    must agree to 1e-12 elementwise (``_xcore._check_family``, on the six
    entries the two can fill).  Results are immutable, so repeated calls
    at the same p share one instance; the 256 most recent p are kept, which
    covers every caller that walks a grid with p in the outer loop.
    """
    p = _check_range("p", p, 0.0, 1.0)
    x = _family_x(p)
    rho = DensityMatrix.from_matrix(_x_matrix(*x))
    _check_family(p, *x)
    return rho


def nmems_ad(p: float, theta: float) -> DensityMatrix:
    """Amplitude-damped image of nmems(p) at damping gamma = sin^2(theta).

    Closed form: the top-left entry is untouched, the inner block is scaled
    by (1 - gamma) and the bottom-right entry by (1 - gamma)^2.  This map
    drains trace for gamma > 0, so the result is tagged sub_normalized
    rather than rescaled.  The full correlated-channel image (which keeps an
    extra |00><00| term) lives in the channels module.
    """
    x = _mode_damped_x(MODE_CLOSED_FORM, p, theta)
    return DensityMatrix.from_matrix(_x_matrix(*x))


def _check_x_form(m: np.ndarray, *, corners: bool) -> list:
    """Reject a 4x4 matrix with an off-diagonal entry outside the X form,
    and return its entries as nested lists of Python complex.

    The inner anti-diagonal pair (1,2)/(2,1) is always allowed; the corner
    pair (0,3)/(3,0) only when ``corners`` is true.  Every other entry must
    stay below X_STRUCTURE_TOL in magnitude.
    """
    rows = m.tolist()
    allowed = ((1, 2), (2, 1), (0, 3), (3, 0)) if corners else ((1, 2), (2, 1))
    for i in range(4):
        for j in range(4):
            if i != j and (i, j) not in allowed and abs(rows[i][j]) >= X_STRUCTURE_TOL:
                raise InputError(
                    f"entry ({i}, {j}) = {rows[i][j]:.3e} breaks the X structure"
                )
    return rows


def x_params_of(rho: DensityMatrix) -> XStateParams:
    """Extract (a, b, c, d, e) from a corner-free X-form state.

    The corner coherence rho[0, 3] must vanish along with the other non-X
    entries; otherwise the five-parameter form does not describe the state
    and the input is rejected.
    """
    m = rho.matrix
    if m.shape != (4, 4):
        raise InputError("X-state extraction requires a 4x4 density matrix")
    rows = _check_x_form(m, corners=False)
    diag = [max(rows[k][k].real, 0.0) for k in range(4)]
    return XStateParams(a=diag[0], b=diag[1], c=rows[1][2], d=diag[2], e=diag[3])
