"""Relations between the measures of the public per-point API that hold
for every two-qubit state, checked on seeded dense states of rank 1-4.

- CHSH against concurrence (Verstraete and Wolf, PRL 89, 170401):
  M <= 1 + C^2, with equality for pure states.
- Teleportation fidelity against concurrence (Verstraete and Verschelde,
  PRL 90, 097901): F <= (2 + C) / 3, with equality for pure states whose
  correlation criterion finds them useful.
- Concurrence is an entanglement monotone, so local noise cannot raise it:
  C(gadc(gamma, lambda) x gadc(gamma, lambda) rho) <= C(rho).
- Concurrence is homogeneous in the trace (Wootters, PRL 80, 2245):
  C(t rho) = t C(rho), since sqrt(t rho) = sqrt(t) sqrt(rho).
- The qubit swap: C, the correlation sum N, the CHSH value M and the
  entropy S of SWAP rho SWAP are those of rho; discord_x measures qubit B,
  so on the swapped state it is the discord of rho measured on A.

The sweep engine's rows obey the same physics over the whole domain
p in [0, 1], theta in [0, pi/2], edge lines included, in every channel
mode: concurrence_ad <= concurrence, and in product mode (a local channel,
adc(g2) being adc(g') after adc(g1)) concurrence_ad does not grow with
theta; the two damped concurrences agree; M <= 1 + C^2 and F <= (2 + C)/3
on the family, and fidelity_ad <= (2 + concurrence_ad)/3 in product mode,
the one mode whose images have unit trace; discord >= 0; a witness is
negative only where the concurrence is positive; 0 <= entropy_ad <= 2.
(fidelity_ad <= fidelity is no relation: local amplitude damping can raise
the teleportation fidelity of some states; Badziag et al., PRA 62, 012311.)

Each tolerance is c eps, eps = 2^-52, with c stated next to it.  The
concurrence of a rank 2-4 state carries the error of sqrt(rho)'s
eigenvectors under the Jacobi solver's absolute stopping rule (1e-12), up
to some ten thousand eps where the two sides take different matrices; the
monotone's tolerance covers it where the channel is the identity
(gamma = 0) and both sides are the same state.
"""

import math
import sys

import numpy as np
import pytest

from nmems.channels import adc, apply_product_pair, apply_single, gadc, kraus_channel
from nmems.measures import (
    chsh_criterion,
    concurrence_wootters,
    discord_x,
    teleportation_fidelity,
    von_neumann_entropy,
)
from nmems.states import DensityMatrix, nmems
from nmems.sweep import (
    CHANNEL_MODES,
    MODE_PRODUCT,
    QUANTITIES,
    QUANTITY_NAMES,
    SweepSpec,
    iter_sweep,
)

import oracles

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
# Over 4,000 seeded states per rank, C(t rho) - t C(rho) reached 5.5 eps at
# rank 1 and 10,088, 14,257 and 8,208 eps at ranks 2, 3 and 4; across the
# swap C moved by 8 eps at rank 1 and by 11,253, 10,344 and 7,234 eps at
# ranks 2-4, N by 6, M by 9 and S by 40 eps.
HOMOGENEOUS_C = {1: 16, 2: 2 ** 15, 3: 2 ** 15, 4: 2 ** 15}
SWAP_C = {1: 32, 2: 2 ** 15, 3: 2 ** 15, 4: 2 ** 15}
SWAP_NM_C = 32
SWAP_S_C = 128
# discord_x of the swapped one-qubit-damped states against the brute-force
# minimum on qubit A: 7.5 eps measured
SWAP_DISCORD_C = 32
SWAP = np.eye(4)[[0, 2, 1, 3]]
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


@pytest.mark.parametrize("rank", RANKS)
def test_concurrence_is_homogeneous_in_the_trace(rank):
    # t rho is sub-normalized for t < 1; its raw concurrence is t C(rho)
    rng = np.random.default_rng(20261021 + rank)
    tol = HOMOGENEOUS_C[rank] * EPS
    for rho in _dense_states(rank):
        t = rng.uniform(0.05, 1.0)
        scaled = DensityMatrix.from_matrix(t * rho.matrix)
        c = concurrence_wootters(rho)
        assert abs(concurrence_wootters(scaled) - t * c) <= tol, (t, c)


def _swapped(rho: DensityMatrix) -> DensityMatrix:
    return DensityMatrix.from_matrix(SWAP @ rho.matrix @ SWAP)


@pytest.mark.parametrize("rank", RANKS)
def test_symmetric_measures_are_swap_invariant(rank):
    for rho in _dense_states(rank):
        swapped = _swapped(rho)
        assert abs(concurrence_wootters(swapped) - concurrence_wootters(rho)) \
            <= SWAP_C[rank] * EPS
        assert abs(teleportation_fidelity(swapped).n_value - teleportation_fidelity(rho).n_value) \
            <= SWAP_NM_C * EPS
        assert abs(chsh_criterion(swapped).m_value - chsh_criterion(rho).m_value) \
            <= SWAP_NM_C * EPS
        assert abs(von_neumann_entropy(swapped) - von_neumann_entropy(rho)) <= SWAP_S_C * EPS


def test_discord_of_the_swapped_state_measures_qubit_a():
    # the family damped on qubit A alone: X states with b != d, whose
    # discord measured on A and on B differ by up to 0.036 bits (the
    # family and its product images are swap-symmetric, so they cannot
    # tell the two apart)
    asymmetry = 0.0
    for p in np.linspace(0.0, 1.0, 6).tolist():
        base = nmems(p)
        for theta in (0.3, 0.7, 1.1, math.pi / 2):
            ops = [np.kron(k, np.eye(2)) for k in adc(math.sin(theta) ** 2).operators]
            rho = apply_single(kraus_channel(ops, "adc on qubit A"), base)
            want = oracles.brute_discord(rho.matrix, measured=0)
            got = discord_x(_swapped(rho)).discord
            assert abs(got - want) <= SWAP_DISCORD_C * EPS, (p, theta)
            asymmetry = max(asymmetry, abs(want - discord_x(rho).discord))
    assert asymmetry > 0.03


# the engine's rows on a 101 x 101 whole-domain grid per channel mode
# (about 0.5 s for all three); on a 201 x 201 grid every relation below held
# with no excess, and the two damped concurrences differed by up to 1 eps
DOMAIN_STEPS = 101
SWEEP_C = 4
WITNESS_COLUMNS = ("witness_generic", "witness_w1", "witness_stabilizer")


@pytest.mark.parametrize("mode", CHANNEL_MODES)
def test_sweep_columns_obey_the_physics_on_the_whole_domain(mode):
    spec = SweepSpec(
        p_min=0.0, p_max=1.0, p_steps=DOMAIN_STEPS,
        theta_min=0.0, theta_max=math.pi / 2, theta_steps=DOMAIN_STEPS,
        quantities=QUANTITY_NAMES, channel_mode=mode,
    )
    tol = SWEEP_C * EPS
    last = None
    for row in iter_sweep(spec):
        where = row[:2]
        v = dict(zip(QUANTITY_NAMES, row[2:]))
        c, c_ad = v["concurrence"], v["concurrence_ad"]
        assert c_ad <= c + tol, where
        assert abs(v["concurrence_ad_wootters"] - c_ad) <= tol, where
        assert v["chsh"] <= 1.0 + c * c + tol, where
        assert v["fidelity"] <= (2.0 + c) / 3.0 + tol, where
        assert v["discord"] >= -tol, where
        for name in WITNESS_COLUMNS:
            assert v[name] >= 0.0 or c > 0.0, (name, where)
        # with no tolerance: rounding above 1 may not make an entropy negative
        assert 0.0 <= v["entropy_ad"] <= 2.0, (v["entropy_ad"], where)
        if mode == MODE_PRODUCT:
            assert v["fidelity_ad"] <= (2.0 + c_ad) / 3.0 + tol, where
            if last is not None and last[0] == row[0]:
                assert c_ad <= last[1] + tol, where
            last = (row[0], c_ad)


@pytest.mark.parametrize("p", [0.075, 0.45])
def test_matrix_route_entropy_of_the_fully_damped_product_image_is_zero(p):
    # adc(1) x adc(1) sends the state to |00><00|, whose a the Kraus sum
    # leaves at 1 + 2^-52, as in the sweep's cell at (0.45, pi/2) on the
    # grid above; the matrix route shares _xcore._spectrum_entropy
    assert QUANTITIES["entropy_ad"](p, math.pi / 2, MODE_PRODUCT) == 0.0
