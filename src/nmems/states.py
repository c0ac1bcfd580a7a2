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

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InputError, NumericalError

UNIT = "unit"
SUB_NORMALIZED = "sub_normalized"

TRACE_TOL = 1e-10
# traces inside [1 - 1e-12, 1 + 1e-10] count as unit; below that the state is
# explicitly tagged as sub-normalized rather than silently rescaled
SUB_NORMAL_EDGE = 1e-12
X_STRUCTURE_TOL = 1e-10


def _check_range(name: str, value: float, lo: float, hi: float) -> float:
    value = float(value)
    if not (lo <= value <= hi) or not math.isfinite(value):
        raise InputError(f"{name} must lie in [{lo:g}, {hi:g}], got {value!r}")
    return value


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated quantum state: Hermitian, PSD, with a tagged trace.

    The spectral decomposition computed during validation is kept on the
    instance so downstream measures never re-diagonalize.
    """

    matrix: np.ndarray
    normalization: str
    trace_value: float
    spectrum: linalg.Spectrum

    @classmethod
    def from_matrix(cls, m) -> "DensityMatrix":
        """Validate ``m`` and wrap it, deriving the normalization tag.

        Rejects matrices that are not Hermitian (1e-10), have an eigenvalue
        below -1e-10, or whose trace is outside (0, 1 + 1e-10].
        """
        # the one shape, finiteness and Hermiticity check; it diagonalizes
        # the same symmetrized matrix that is stored below
        spec = linalg.hermitian_eigen(m)
        lo = float(spec.eigenvalues.min())
        if lo < linalg.EIGENVALUE_FLOOR:
            raise InputError(f"density matrix has negative eigenvalue {lo:.3e}")
        m = np.asarray(m, dtype=complex)
        m = (m + m.conj().T) / 2.0
        tr = complex(np.trace(m))
        if abs(tr.imag) > TRACE_TOL:
            raise InputError("density matrix trace must be real")
        tr = tr.real
        if tr >= 1.0 - SUB_NORMAL_EDGE and tr <= 1.0 + TRACE_TOL:
            tag = UNIT
        elif 0.0 < tr < 1.0 - SUB_NORMAL_EDGE:
            tag = SUB_NORMALIZED
        else:
            raise InputError(f"density matrix trace {tr!r} outside (0, 1]")
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
        for name in ("a", "b", "d", "e"):
            if getattr(self, name) < 0.0:
                raise InputError(f"X-state parameter {name} must be non-negative")
        if abs(self.c) > math.sqrt(self.b * self.d) + 1e-9:
            raise InputError("coherence |c| exceeds sqrt(b*d); not a valid state")


def ghz_state() -> np.ndarray:
    """(|000> + |111>) / sqrt(2) as an 8x1 column vector."""
    v = np.zeros((8, 1), dtype=complex)
    v[0, 0] = 1.0 / math.sqrt(2.0)
    v[7, 0] = 1.0 / math.sqrt(2.0)
    return v


def w_state() -> np.ndarray:
    """(|001> + |010> + |100>) / sqrt(3) as an 8x1 column vector."""
    v = np.zeros((8, 1), dtype=complex)
    amp = 1.0 / math.sqrt(3.0)
    v[1, 0] = amp
    v[2, 0] = amp
    v[4, 0] = amp
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


def _family_closed_form(p: float) -> np.ndarray:
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = (p + 2.0) / 6.0
    z = (1.0 - p) / 3.0
    m[1, 1] = m[2, 2] = m[1, 2] = m[2, 1] = z
    m[3, 3] = p / 2.0
    return m


@functools.lru_cache(maxsize=4096)
def nmems(p: float) -> DensityMatrix:
    """The GHZ/W-mixture state at mixing parameter p.

    Built both as the mixture of partial traces and from the closed-form
    matrix; the two constructions must agree to 1e-12 elementwise.  Results
    are immutable, so repeated calls at the same p share one instance.
    """
    p = _check_range("p", p, 0.0, 1.0)
    mixture = p * ghz_reduced() + (1.0 - p) * w_reduced()
    closed = _family_closed_form(p)
    gap = float(np.max(np.abs(mixture - closed)))
    if gap > 1e-12:
        raise NumericalError(
            f"mixture and closed-form constructions disagree by {gap:.3e}"
        )
    return DensityMatrix.from_matrix(closed)


def nmems_ad(p: float, theta: float) -> DensityMatrix:
    """Amplitude-damped image of nmems(p) at damping gamma = sin^2(theta).

    Closed form: the top-left entry is untouched, the inner block is scaled
    by (1 - gamma) and the bottom-right entry by (1 - gamma)^2.  This map
    drains trace for gamma > 0, so the result is tagged sub_normalized
    rather than rescaled.  The full correlated-channel image (which keeps an
    extra |00><00| term) lives in the channels module.
    """
    p = _check_range("p", p, 0.0, 1.0)
    theta = _check_range("theta", theta, 0.0, math.pi / 2.0)
    gamma = math.sin(theta) ** 2
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = (p + 2.0) / 6.0
    z = (1.0 - p) / 3.0 * (1.0 - gamma)
    m[1, 1] = m[2, 2] = m[1, 2] = m[2, 1] = z
    m[3, 3] = p / 2.0 * (1.0 - gamma) ** 2
    return DensityMatrix.from_matrix(m)


def _check_x_form(m: np.ndarray, *, corners: bool) -> None:
    """Reject a 4x4 matrix with an off-diagonal entry outside the X form.

    The inner anti-diagonal pair (1,2)/(2,1) is always allowed; the corner
    pair (0,3)/(3,0) only when ``corners`` is true.  Every other entry must
    stay below X_STRUCTURE_TOL in magnitude.
    """
    allowed = ((1, 2), (2, 1), (0, 3), (3, 0)) if corners else ((1, 2), (2, 1))
    for i in range(4):
        for j in range(4):
            if i != j and (i, j) not in allowed and abs(m[i, j]) >= X_STRUCTURE_TOL:
                raise InputError(
                    f"entry ({i}, {j}) = {m[i, j]:.3e} breaks the X structure"
                )


def x_params_of(rho: DensityMatrix) -> XStateParams:
    """Extract (a, b, c, d, e) from a corner-free X-form state.

    The corner coherence rho[0, 3] must vanish along with the other non-X
    entries; otherwise the five-parameter form does not describe the state
    and the input is rejected.
    """
    m = rho.matrix
    if m.shape != (4, 4):
        raise InputError("X-state extraction requires a 4x4 density matrix")
    _check_x_form(m, corners=False)
    diag = [max(m[k, k].real, 0.0) for k in range(4)]
    return XStateParams(a=diag[0], b=diag[1], c=complex(m[1, 2]), d=diag[2], e=diag[3])


def x_matrix_of(params: XStateParams) -> np.ndarray:
    """Inverse of x_params_of: assemble the 4x4 matrix."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = params.a
    m[1, 1] = params.b
    m[2, 2] = params.d
    m[3, 3] = params.e
    m[1, 2] = params.c
    m[2, 1] = np.conj(params.c)
    return m
