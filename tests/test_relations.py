"""Relations between the measures of the public per-point API that hold
for every two-qubit state, checked on seeded dense states of rank 1-4.

- CHSH against concurrence (Verstraete and Wolf, PRL 89, 170401):
  M <= 1 + C^2, with equality for pure states.
- Teleportation fidelity against concurrence (Verstraete and Verschelde,
  PRL 90, 097901): F <= (2 + C) / 3, with equality for pure states whose
  correlation criterion finds them useful.
- Concurrence is an entanglement monotone, so local noise cannot raise it:
  C(gadc(gamma, lambda) x gadc(gamma, lambda) rho) <= C(rho).

Each tolerance is c eps, eps = 2^-52, with c stated next to it.  The
concurrence of a rank-2 state carries the error of sqrt(rho)'s
eigenvectors under the Jacobi solver's absolute stopping rule (1e-12), up
to a few thousand eps; the monotone's tolerance covers it where the
channel is the identity (gamma = 0) and both sides are the same state.
"""

import sys

import numpy as np
import pytest

from nmems.channels import apply_product_pair, gadc
from nmems.measures import chsh_criterion, concurrence_wootters, teleportation_fidelity
from nmems.states import DensityMatrix

EPS = sys.float_info.epsilon
# Each c is two to four times the worst slack over 3,000 seeded states
# per rank (other seeds than these tests'): 13.5 eps for M, 2 eps for F,
# and for the monotone 9 eps at ranks 1, 3 and 4 and 7,727 eps at rank 2.
# M <= 1 + C^2 and F <= (2 + C) / 3, and their equality for pure states
CHSH_C = 32
FIDELITY_C = 8
# C(image) <= C(rho); the rank-2 concurrence carries sqrt(rho)'s
# eigenvector error
MONOTONE_C = {1: 32, 2: 2 ** 14, 3: 32, 4: 32}
STATES_PER_RANK = 60
RANKS = (1, 2, 3, 4)


def _dense_states(rank: int) -> list:
    """STATES_PER_RANK seeded unit-trace dense states of the given rank."""
    rng = np.random.default_rng(20261019 + rank)
    states = []
    for _ in range(STATES_PER_RANK):
        g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
        rho = g @ g.conj().T
        states.append(DensityMatrix.from_matrix(rho / np.trace(rho).real))
    return states


@pytest.mark.parametrize("rank", RANKS)
def test_chsh_is_bounded_by_the_concurrence(rank):
    for rho in _dense_states(rank):
        c = concurrence_wootters(rho)
        m = chsh_criterion(rho).m_value
        bound = 1.0 + c * c
        assert m <= bound + CHSH_C * EPS, (m, c)
        if rank == 1:
            assert abs(m - bound) <= CHSH_C * EPS, (m, c)


@pytest.mark.parametrize("rank", RANKS)
def test_fidelity_is_bounded_by_the_concurrence(rank):
    for rho in _dense_states(rank):
        c = concurrence_wootters(rho)
        result = teleportation_fidelity(rho)
        bound = (2.0 + c) / 3.0
        assert result.fidelity <= bound + FIDELITY_C * EPS, (result, c)
        if rank == 1 and result.useful:
            assert abs(result.fidelity - bound) <= FIDELITY_C * EPS, (result, c)


@pytest.mark.parametrize("rank", RANKS)
def test_local_noise_does_not_raise_the_concurrence(rank):
    rng = np.random.default_rng(20261020 + rank)
    tol = MONOTONE_C[rank] * EPS
    for rho in _dense_states(rank):
        c = concurrence_wootters(rho)
        # the identity (gamma = 0), full damping towards |00> (gamma = 1,
        # lambda = 1) and a random channel
        for gamma, lam in ((0.0, rng.random()), (1.0, 1.0), (rng.random(), rng.random())):
            image = apply_product_pair(gadc(gamma, lam), rho)
            assert concurrence_wootters(image) <= c + tol, (gamma, lam, c)
