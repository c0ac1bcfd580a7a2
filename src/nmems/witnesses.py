"""Witness operators and their evaluation.

Three Hermitian observables: a generic teleportation witness for d x d
systems built around the maximally entangled ket, an entanglement witness
built from the reduced W state, and a stabilizer-style teleportation witness
assembled from Pauli pairs.  A state is "detected" when the expectation
Tr(W rho) is strictly negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .states import DensityMatrix, w_reduced

KIND_TELEPORTATION_GENERIC = "teleportation_generic"
KIND_ENTANGLEMENT_W = "entanglement_W"
KIND_TELEPORTATION_STABILIZER = "teleportation_stabilizer"

IMAG_TOL = 1e-10

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class WitnessOperator:
    matrix: np.ndarray
    kind: str
    name: str


@dataclass(frozen=True)
class WitnessVerdict:
    expectation: float
    detected: bool
    witness_name: str


def _freeze(m: np.ndarray) -> np.ndarray:
    m = (m + m.conj().T) / 2.0
    m.setflags(write=False)
    return m


def witness_generic(d: int) -> WitnessOperator:
    """(1/d) I - |psi+><psi+| on a d x d system, psi+ = sum_i |ii> / sqrt(d)."""
    if not isinstance(d, int) or d < 2:
        raise InputError(f"witness dimension d must be an integer >= 2, got {d!r}")
    dim = d * d
    psi = np.zeros((dim, 1), dtype=complex)
    for i in range(d):
        psi[i * d + i, 0] = 1.0 / math.sqrt(d)
    m = np.eye(dim, dtype=complex) / d - psi @ psi.conj().T
    return WitnessOperator(
        matrix=_freeze(m), kind=KIND_TELEPORTATION_GENERIC, name=f"generic(d={d})"
    )


def witness_w1() -> WitnessOperator:
    """(4/9) I - Tr_c |W><W|, an entanglement witness for the family."""
    m = (4.0 / 9.0) * np.eye(4, dtype=complex) - w_reduced()
    return WitnessOperator(matrix=_freeze(m), kind=KIND_ENTANGLEMENT_W, name="w1")


def witness_stabilizer() -> WitnessOperator:
    """I - sigma_x x sigma_x - sigma_y x sigma_y, the teleportation witness."""
    m = (
        np.eye(4, dtype=complex)
        - np.kron(SIGMA_X, SIGMA_X)
        - np.kron(SIGMA_Y, SIGMA_Y)
    )
    return WitnessOperator(
        matrix=_freeze(m), kind=KIND_TELEPORTATION_STABILIZER, name="stabilizer"
    )


def evaluate(w: WitnessOperator, rho: DensityMatrix) -> WitnessVerdict:
    """Expectation Tr(W rho); detected means strictly negative.

    The trace of a Hermitian product is real up to float dust; an imaginary
    part at or above 1e-10 indicates corrupted inputs and is a hard error.
    """
    if w.matrix.shape != rho.matrix.shape:
        raise InputError(
            f"witness is {w.matrix.shape} but state is {rho.matrix.shape}"
        )
    value = complex(np.trace(w.matrix @ rho.matrix))
    if abs(value.imag) >= IMAG_TOL:
        raise NumericalError(
            f"witness expectation has imaginary part {value.imag:.3e}"
        )
    expectation = value.real
    return WitnessVerdict(
        expectation=expectation, detected=expectation < 0.0, witness_name=w.name
    )
