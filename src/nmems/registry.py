"""The per-point quantity registry: every sweep column as a function of the
grid point (p, theta) and the channel mode, through the public matrix API.

``QUANTITIES[name](p, theta, mode)`` is the public per-point definition of
each column, on a sweep's domain (``_checked``), and the tests' oracle of
the sweep engine, which never calls it and reads five numbers, no numpy.
Importing this module loads numpy; ``nmems.sweep.QUANTITIES`` is its dict.
"""

from __future__ import annotations

import math

from ._xcore import MODE_CLOSED_FORM, MODE_CORRELATED, _check_mode, _check_range
from .channels import adc, apply_correlated_pair, apply_product_pair
from .measures import (
    chsh_criterion,
    concurrence_wootters,
    concurrence_x,
    correlation_matrix,
    discord_x,
    fidelity_ad_closed_form,
    fidelity_from_correlation,
    teleportation_fidelity,
    von_neumann_entropy,
)
from .states import DensityMatrix, nmems, nmems_ad, x_params_of
from .witnesses import evaluate, witness_generic, witness_stabilizer, witness_w1


def _checked(column):
    """``column(p, theta, mode)`` after the checks of p, theta and the mode."""
    return lambda p, theta, mode: column(
        _check_range("p", p, 0.0, 1.0), _check_range("theta", theta, 0.0, math.pi / 2.0),
        _check_mode(mode))


def _damped(p: float, theta: float, mode: str) -> DensityMatrix:
    """The damped state of grid point (p, theta) in channel mode ``mode``,
    after the calling entry's checks (``_checked``) have passed all three."""
    if mode == MODE_CLOSED_FORM:
        return nmems_ad(p, theta)
    base = nmems(p)
    channel = adc(math.sin(theta) ** 2)
    if mode == MODE_CORRELATED:
        return apply_correlated_pair(channel, base)
    return apply_product_pair(channel, base)


_WITNESSES = {
    "generic": witness_generic(2),
    "w1": witness_w1(),
    "stabilizer": witness_stabilizer(),
}


# fidelity_ad runs the Horodecki formula on the raw correlation matrix of
# the mode's damped state, with no renormalization: in closed_form and
# correlated that state is sub-normalized for theta > 0 (fidelity_ad is
# 2/3 at p = 0.1, theta = 0.6 in closed_form), while fidelity rejects
# non-unit input.
_COLUMNS = {
    "concurrence": lambda p, theta, mode: concurrence_x(x_params_of(nmems(p))),
    "concurrence_ad": lambda p, theta, mode: concurrence_x(
        x_params_of(_damped(p, theta, mode))
    ),
    "concurrence_wootters": lambda p, theta, mode: concurrence_wootters(nmems(p)),
    "concurrence_ad_wootters": lambda p, theta, mode: concurrence_wootters(
        _damped(p, theta, mode)
    ),
    "fidelity": lambda p, theta, mode: teleportation_fidelity(nmems(p)).fidelity,
    "fidelity_ad": lambda p, theta, mode: fidelity_from_correlation(
        correlation_matrix(_damped(p, theta, mode))
    ).fidelity,
    "fidelity_ad_closed_form": lambda p, theta, mode: fidelity_ad_closed_form(p, theta),
    "discord": lambda p, theta, mode: discord_x(nmems(p)).discord,
    "entropy": lambda p, theta, mode: von_neumann_entropy(nmems(p)),
    "entropy_ad": lambda p, theta, mode: von_neumann_entropy(_damped(p, theta, mode)),
    # the entropy the channel mode's own damped map adds; in closed_form
    # this is mid_adc(p, theta), with the same arithmetic
    "mid": lambda p, theta, mode: (
        von_neumann_entropy(_damped(p, theta, mode)) - von_neumann_entropy(nmems(p))
    ),
    "chsh": lambda p, theta, mode: chsh_criterion(nmems(p)).m_value,
    "witness_generic": lambda p, theta, mode: evaluate(
        _WITNESSES["generic"], nmems(p)
    ).expectation,
    "witness_w1": lambda p, theta, mode: evaluate(_WITNESSES["w1"], nmems(p)).expectation,
    "witness_stabilizer": lambda p, theta, mode: evaluate(
        _WITNESSES["stabilizer"], nmems(p)
    ).expectation,
}

QUANTITIES = {name: _checked(column) for name, column in _COLUMNS.items()}
