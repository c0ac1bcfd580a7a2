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
from ._xcore import _check_range
from .errors import InputError
from .states import DensityMatrix

TRACE_PRESERVING_TOL = 1e-10


@dataclass(frozen=True)
class KrausChannel:
    """Kraus operators with a label and a trace-preservation flag.

    Build it with ``kraus_channel`` (or ``adc``/``gadc``), which stores
    read-only views of one copied stack of the operators.
    """

    operators: tuple
    label: str
    trace_preserving: bool


def kraus_channel(operators, label: str) -> KrausChannel:
    """Bundle operators into a channel, computing the trace-preserving flag.

    Each operator is checked as a finite 2-d matrix, in order, and then
    all of them as one non-empty stack of square matrices of one shape.
    The operators are copied into one (k, n, n) stack, made read-only, and
    stored as its k views; completeness, sum_k K_k^dagger K_k = 1 within
    1e-10, is checked on the stack by one batched product.  ``adc`` and
    ``gadc`` build their stacks finite and square themselves and make only
    the completeness check, with the same bits.
    """
    ops = [linalg.as_matrix(k) for k in operators]
    if not ops:
        raise InputError("a channel needs at least one Kraus operator")
    shape = ops[0].shape
    if any(k.shape != shape for k in ops):
        raise InputError("all Kraus operators must share the same dimensions")
    if shape[0] != shape[1]:
        raise InputError("Kraus operators must be square")
    return _channel(np.array(ops), label)


def _channel(stack: np.ndarray, label: str) -> KrausChannel:
    """The channel of a fresh, finite (k, n, n) complex stack, which is made
    read-only and stored as its k views, with its completeness checked."""
    stack.setflags(write=False)
    total = (stack.conj().transpose(0, 2, 1) @ stack).sum(axis=0)
    gap = float(np.abs(total - np.eye(stack.shape[1])).max())
    return KrausChannel(
        operators=tuple(stack),
        label=label,
        trace_preserving=gap <= TRACE_PRESERVING_TOL,
    )


def adc(gamma: float) -> KrausChannel:
    """Amplitude damping channel with decay probability gamma.

    K0 = [[1, 0], [0, sqrt(1-gamma)]], K1 = [[0, sqrt(gamma)], [0, 0]].
    """
    gamma = _check_range("gamma", gamma, 0.0, 1.0)
    ops = np.array([[[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]],
                    [[0.0, math.sqrt(gamma)], [0.0, 0.0]]], dtype=complex)
    return _channel(ops, f"adc(gamma={gamma:g})")


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
    # sl * [[1, 0], [0, cg]], sl * [[0, sg], [0, 0]],
    # cl * [[cg, 0], [0, 1]] and cl * [[0, 0], [sg, 0]], entry by entry
    ops = np.array([[[sl, 0.0], [0.0, sl * cg]],
                    [[0.0, sl * sg], [0.0, 0.0]],
                    [[cl * cg, 0.0], [0.0, cl]],
                    [[0.0, 0.0], [cl * sg, 0.0]]], dtype=complex)
    return _channel(ops, f"gadc(gamma={gamma:g}, lambda={lam:g})")


def _kraus_sum(operators: np.ndarray, rho: DensityMatrix) -> DensityMatrix:
    """sum_k K_k rho K_k^dagger over a (k, n, n) stack of operators.

    Every term K_k rho K_k^dagger comes from one stacked product,
    (K rho) K^dagger for the whole stack; one reduction over the stack's
    axis then adds the terms one at a time, in the order of the stack, to
    an explicit start of 0j, with the bits of in-place adds to zeros.
    """
    terms = operators @ rho.matrix @ operators.conj().transpose(0, 2, 1)
    return DensityMatrix.from_matrix(np.add.reduce(terms, axis=0, initial=0j))


def apply_single(ch: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """sum_i K_i rho K_i^dagger on a state of matching dimension."""
    dim = ch.operators[0].shape[0]
    if rho.dim != dim:
        raise InputError(f"channel acts on dimension {dim}, state is {rho.dim}")
    return _kraus_sum(np.array(ch.operators), rho)


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
    ops = np.array(ch.operators)
    return _kraus_sum(linalg._kron_pairs(ops, ops), rho)


def apply_product_pair(ch: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """sum_{i,j} (K_i x K_j) rho (K_i x K_j)^dagger: independent noise on
    each qubit.  Trace-preserving whenever the channel is."""
    _require_qubit_pair(ch, rho)
    ops = np.array(ch.operators)
    # K_i x K_j for every (i, j), i outer and j inner
    products = linalg._kron_pairs(ops[:, None], ops[None, :])
    return _kraus_sum(products.reshape(-1, 4, 4), rho)

