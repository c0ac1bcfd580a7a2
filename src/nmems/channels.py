"""Kraus-operator channels: amplitude damping, its finite-temperature
generalization, and three ways of acting on states.

``apply_single`` is the ordinary one-qubit channel action.  For two qubits
there are two distinct maps: ``apply_product_pair`` applies the channel
independently to each qubit (the standard completely positive
trace-preserving construction), while ``apply_correlated_pair`` keeps only
the identical-index terms K_i x K_i.  The correlated map is NOT
trace-preserving; its output is tagged sub_normalized by the state
validator, never rescaled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
# _adc_pair_x replays the Kraus pair maps of adc on five numbers; re-exported here
from ._xcore import _adc_pair_x, _check_range
from .errors import InputError
from .states import DensityMatrix

TRACE_PRESERVING_TOL = 1e-10


def _frozen(k: np.ndarray) -> np.ndarray:
    k.setflags(write=False)
    return k


@dataclass(frozen=True)
class KrausChannel:
    """Kraus operators with a label and a trace-preservation flag.

    Build it with ``kraus_channel``, which stores read-only copies of the
    operators.
    """

    operators: tuple
    label: str
    trace_preserving: bool


def kraus_channel(operators, label: str) -> KrausChannel:
    """Bundle operators into a channel, computing the trace-preserving flag."""
    ops = tuple(linalg.as_matrix(k) for k in operators)
    if not ops:
        raise InputError("a channel needs at least one Kraus operator")
    shape = ops[0].shape
    if any(k.shape != shape for k in ops):
        raise InputError("all Kraus operators must share the same dimensions")
    if shape[0] != shape[1]:
        raise InputError("Kraus operators must be square")
    total = sum(k.conj().T @ k for k in ops)
    gap = float(np.max(np.abs(total - np.eye(shape[0]))))
    return KrausChannel(
        operators=tuple(_frozen(k.copy()) for k in ops),
        label=label,
        trace_preserving=gap <= TRACE_PRESERVING_TOL,
    )


def adc(gamma: float) -> KrausChannel:
    """Amplitude damping channel with decay probability gamma.

    K0 = [[1, 0], [0, sqrt(1-gamma)]], K1 = [[0, sqrt(gamma)], [0, 0]].
    """
    gamma = _check_range("gamma", gamma, 0.0, 1.0)
    e0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=complex)
    e1 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return kraus_channel((e0, e1), label=f"adc(gamma={gamma:g})")


def gadc(gamma: float, lam: float) -> KrausChannel:
    """Generalized amplitude damping: decay gamma, temperature mixing lam.

    lam = 1 recovers adc(gamma); lam = 0 pumps population towards |1>.
    """
    gamma = _check_range("gamma", gamma, 0.0, 1.0)
    lam = _check_range("lambda", lam, 0.0, 1.0)
    sl = math.sqrt(lam)
    cl = math.sqrt(1.0 - lam)
    sg = math.sqrt(gamma)
    cg = math.sqrt(1.0 - gamma)
    e0 = sl * np.array([[1.0, 0.0], [0.0, cg]], dtype=complex)
    e1 = sl * np.array([[0.0, sg], [0.0, 0.0]], dtype=complex)
    e2 = cl * np.array([[cg, 0.0], [0.0, 1.0]], dtype=complex)
    e3 = cl * np.array([[0.0, 0.0], [sg, 0.0]], dtype=complex)
    return kraus_channel(
        (e0, e1, e2, e3), label=f"gadc(gamma={gamma:g}, lambda={lam:g})"
    )


def _kraus_sum(operators, rho: DensityMatrix) -> DensityMatrix:
    """sum_k K_k rho K_k^dagger, accumulated in the order given."""
    out = np.zeros_like(rho.matrix)
    for k in operators:
        out = out + k @ rho.matrix @ k.conj().T
    return DensityMatrix.from_matrix(out)


def apply_single(ch: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """sum_i K_i rho K_i^dagger on a state of matching dimension."""
    dim = ch.operators[0].shape[0]
    if rho.dim != dim:
        raise InputError(f"channel acts on dimension {dim}, state is {rho.dim}")
    return _kraus_sum(ch.operators, rho)


def _require_qubit_pair(ch: KrausChannel, rho: DensityMatrix) -> None:
    if ch.operators[0].shape != (2, 2):
        raise InputError("pair application needs 2x2 Kraus operators")
    if rho.dim != 4:
        raise InputError("pair application needs a 4x4 two-qubit state")


def apply_correlated_pair(ch: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """sum_i (K_i x K_i) rho (K_i x K_i)^dagger for a two-operator channel.

    Keeping only the identical-index terms makes this map non-trace-
    preserving in general; the output carries whatever trace survives.
    """
    _require_qubit_pair(ch, rho)
    if len(ch.operators) != 2:
        raise InputError("correlated pair application needs exactly 2 operators")
    return _kraus_sum([np.kron(k, k) for k in ch.operators], rho)


def apply_product_pair(ch: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """sum_{i,j} (K_i x K_j) rho (K_i x K_j)^dagger: independent noise on
    each qubit.  Trace-preserving whenever the channel is."""
    _require_qubit_pair(ch, rho)
    ops = ch.operators
    return _kraus_sum([np.kron(ki, kj) for ki in ops for kj in ops], rho)

