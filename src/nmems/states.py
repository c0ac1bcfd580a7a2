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


def _check_finite(*entries) -> None:
    if not all(map(math.isfinite, entries)):
        raise InputError("matrix entries must be finite")


def _normalization(lowest: float, tr: float) -> str:
    """The trace tag of a state whose smallest eigenvalue is ``lowest`` and
    whose trace is ``tr``: rejects an eigenvalue below -1e-10 first, then a
    trace outside (0, 1 + 1e-10]."""
    if lowest < linalg.EIGENVALUE_FLOOR:
        raise InputError(f"density matrix has negative eigenvalue {lowest:.3e}")
    if tr >= 1.0 - SUB_NORMAL_EDGE and tr <= 1.0 + TRACE_TOL:
        return UNIT
    if 0.0 < tr < 1.0 - SUB_NORMAL_EDGE:
        return SUB_NORMALIZED
    raise InputError(f"density matrix trace {tr!r} outside (0, 1]")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated quantum state: Hermitian, PSD, with a tagged trace.

    The spectral decomposition computed during validation is kept on the
    instance so downstream measures never re-diagonalize.  ``from_matrix``
    is the validator for dense input.  The family's corner-free X states
    (``nmems``, ``nmems_ad``) are built from their five numbers and enter
    the same Jacobi core directly, with the same bits as ``from_matrix`` on
    the dense matrix, because Hermiticity and symmetry hold by construction.
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
        m = np.asarray(m, dtype=complex)
        return cls._tagged((m + m.conj().T) / 2.0, spec)

    @classmethod
    def _from_x(cls, a: float, b: float, c: float, d: float, e: float) -> "DensityMatrix":
        """The corner-free X state with real diagonal (a, b, d, e) and real
        inner coherence c = rho[1, 2] = rho[2, 1].

        Same checks, messages and bits as ``from_matrix`` on the dense
        matrix, minus the coercion, Hermiticity test and symmetrization,
        which hold by construction.
        """
        _check_finite(a, b, c, d, e)
        a, b, c, d, e = complex(a), complex(b), complex(c), complex(d), complex(e)
        z = 0j
        w = [[a, z, z, z], [z, b, c, z], [z, c, d, z], [z, z, z, e]]
        m = np.array(w)
        return cls._tagged(m, linalg._jacobi(w))

    @classmethod
    def _tagged(cls, m: np.ndarray, spec: linalg.Spectrum) -> "DensityMatrix":
        """Apply the eigenvalue floor and the trace tag to a fresh, exactly
        Hermitian matrix and its spectrum, and freeze the matrix."""
        tr = complex(np.trace(m))
        # the diagonal of an exactly Hermitian matrix is real, so this never
        # pre-empts the floor check below
        if abs(tr.imag) > TRACE_TOL:
            raise InputError("density matrix trace must be real")
        tr = tr.real
        tag = _normalization(float(spec.eigenvalues[-1]), tr)  # sorted descending
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
        _check_x_params(self.a, self.b, self.c, self.d, self.e)


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


def _family_x(p: float) -> tuple:
    """(a, b, c, d, e) of nmems(p): diagonal ((p+2)/6, z, z, p/2) and inner
    coherence z, with z = (1-p)/3."""
    z = (1.0 - p) / 3.0
    return (p + 2.0) / 6.0, z, z, z, p / 2.0


@functools.lru_cache(maxsize=4096)
def nmems(p: float) -> DensityMatrix:
    """The GHZ/W-mixture state at mixing parameter p.

    Built both as the mixture of partial traces and from the closed-form
    X parameters; the two constructions must agree to 1e-12 elementwise.
    Results are immutable, so repeated calls at the same p share one
    instance.
    """
    p = _check_range("p", p, 0.0, 1.0)
    mixture = p * ghz_reduced() + (1.0 - p) * w_reduced()
    rho = DensityMatrix._from_x(*_family_x(p))
    gap = float(np.max(np.abs(mixture - rho.matrix)))
    if gap > 1e-12:
        raise NumericalError(
            f"mixture and closed-form constructions disagree by {gap:.3e}"
        )
    return rho


def nmems_ad(p: float, theta: float) -> DensityMatrix:
    """Amplitude-damped image of nmems(p) at damping gamma = sin^2(theta).

    Closed form: the top-left entry is untouched, the inner block is scaled
    by (1 - gamma) and the bottom-right entry by (1 - gamma)^2.  This map
    drains trace for gamma > 0, so the result is tagged sub_normalized
    rather than rescaled.  The full correlated-channel image (which keeps an
    extra |00><00| term) lives in the channels module.
    """
    return DensityMatrix._from_x(*_damped_x(p, theta))


def _damped_x(p: float, theta: float) -> tuple:
    """(a, b, c, d, e) of nmems_ad(p, theta), range checks included."""
    p = _check_range("p", p, 0.0, 1.0)
    theta = _check_range("theta", theta, 0.0, math.pi / 2.0)
    gamma = math.sin(theta) ** 2
    a, z, _, _, e = _family_x(p)
    z = z * (1.0 - gamma)
    return a, z, z, z, e * (1.0 - gamma) ** 2


def _x_trace(a: float, b: float, d: float, e: float) -> float:
    """Trace of the X state with diagonal (a, b, d, e), summed in the order
    np.trace adds four complex entries, so it has the bits of
    ``DensityMatrix._from_x(a, b, c, d, e).trace_value``."""
    return (a + b) + (d + e)


def _x_spectrum(a: float, b: float, c: float, d: float, e: float) -> tuple:
    """(descending eigenvalues, normalization tag) of
    ``DensityMatrix._from_x(a, b, c, d, e)``, bit for bit, without building
    it.

    Makes the checks ``_from_x`` makes, with the same messages: finite
    entries, the eigenvalue floor and the trace window.
    """
    _check_finite(a, b, c, d, e)
    vals = linalg._x_eigenvalues(a, b, c, d, e)
    return vals, _normalization(vals[-1], _x_trace(a, b, d, e))


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
