"""Correctness checks on the CLI outputs, computed in the benchmark process.

* Sweep-cell oracle: a seeded sample of CSV cells is re-evaluated through the
  public per-point route (``nmems(p)``, then ``nmems_ad`` or a Kraus pair map
  of ``adc(sin^2 theta)``, then the measure the column names).
* Headline anchors: the ``headlines`` report is parsed and each number is
  compared with a value derived by hand, independent of the library.
"""

from __future__ import annotations

import math
import re

import nmems as nm

REL_TOL = 1e-10
CELLS_PER_CSV = 150


class Grid:
    """A fixed (p, theta) grid and the quantities a CSV carries over it."""

    def __init__(self, p_range, p_steps, theta_range, theta_steps, quantities, mode):
        self.p_values = _grid(*p_range, p_steps)
        self.theta_values = _grid(*theta_range, theta_steps)
        self.quantities = tuple(quantities)
        self.mode = mode

    @property
    def header(self) -> str:
        return ",".join(("p", "theta") + self.quantities)


def _grid(lo: float, hi: float, steps: int) -> list:
    if steps == 1:
        return [lo]
    return [lo + i * (hi - lo) / (steps - 1) for i in range(steps)]


class _Point:
    def __init__(self, p: float, theta: float, mode: str):
        self.p, self.theta, self.mode = p, theta, mode
        self.base = nm.nmems(p)

    @property
    def damped(self):
        if self.mode == "closed_form":
            return nm.nmems_ad(self.p, self.theta)
        channel = nm.adc(math.sin(self.theta) ** 2)
        if self.mode == "correlated":
            return nm.apply_correlated_pair(channel, self.base)
        return nm.apply_product_pair(channel, self.base)


PER_POINT = {
    "concurrence": lambda pt: nm.concurrence_x(nm.x_params_of(pt.base)),
    "concurrence_ad": lambda pt: nm.concurrence_x(nm.x_params_of(pt.damped)),
    "concurrence_wootters": lambda pt: nm.concurrence_wootters(pt.base),
    "concurrence_ad_wootters": lambda pt: nm.concurrence_wootters(pt.damped),
    "fidelity": lambda pt: nm.teleportation_fidelity(pt.base).fidelity,
    "fidelity_ad": lambda pt: nm.fidelity_from_correlation(
        nm.correlation_matrix(pt.damped)).fidelity,
    "fidelity_ad_closed_form": lambda pt: nm.fidelity_ad_closed_form(pt.p, pt.theta),
    "discord": lambda pt: nm.discord_x(pt.base).discord,
    "entropy": lambda pt: nm.von_neumann_entropy(pt.base),
    "entropy_ad": lambda pt: nm.von_neumann_entropy(pt.damped),
    "mid": lambda pt: nm.mid_adc(pt.p, pt.theta),
    "chsh": lambda pt: nm.chsh_criterion(pt.base).m_value,
    "witness_generic": lambda pt: nm.evaluate(nm.witness_generic(2), pt.base).expectation,
    "witness_w1": lambda pt: nm.evaluate(nm.witness_w1(), pt.base).expectation,
    "witness_stabilizer": lambda pt: nm.evaluate(
        nm.witness_stabilizer(), pt.base).expectation,
}


def check_sweep_csv(data: bytes, grid: Grid, rng) -> list:
    """Problems found in a sweep CSV; an empty list means it passed.

    The header, row count and every (p, theta) pair are checked in full; a
    seeded sample of value cells is re-evaluated per point.  Each sampled cell
    must agree to a relative 1e-10, and NA must appear exactly where the
    per-point call raises InputError.
    """
    lines = data.decode("utf-8").split("\n")
    if lines[-1] != "":
        return ["CSV does not end with a newline"]
    header, rows = lines[0], [line.split(",") for line in lines[1:-1]]
    if header != grid.header:
        return [f"header {header!r} != {grid.header!r}"]
    n_theta = len(grid.theta_values)
    if len(rows) != len(grid.p_values) * n_theta:
        return [f"{len(rows)} rows, expected {len(grid.p_values) * n_theta}"]
    problems = []
    for r, row in enumerate(rows):
        p, theta = grid.p_values[r // n_theta], grid.theta_values[r % n_theta]
        if row[:2] != [f"{p:.12g}", f"{theta:.12g}"] or len(row) != 2 + len(grid.quantities):
            problems.append(f"row {r} is {row[:2]}, expected grid point ({p!r}, {theta!r})")
    if problems:
        return problems[:5]
    # mid is computed on the closed-form damped state whatever the channel
    # mode, and is due to be redefined on each mode's own damped state, so
    # its cells are only checked in closed_form; the other modes' bytes are
    # still recorded through the CSV checksum
    columns = [c for c, q in enumerate(grid.quantities)
               if q != "mid" or grid.mode == "closed_form"]
    for _ in range(CELLS_PER_CSV):
        r = int(rng.integers(len(rows)))
        c = columns[int(rng.integers(len(columns)))]
        q = grid.quantities[c]
        cell = rows[r][2 + c]
        p, theta = grid.p_values[r // n_theta], grid.theta_values[r % n_theta]
        try:
            expected = float(PER_POINT[q](_Point(p, theta, grid.mode)))
        except nm.InputError:
            expected = None
        if expected is None or cell == "NA":
            ok = expected is None and cell == "NA"
        else:
            ok = math.isclose(float(cell), expected, rel_tol=REL_TOL, abs_tol=0.0)
        if not ok:
            problems.append(f"{q} at (p={p!r}, theta={theta!r}): CSV {cell}, per-point {expected!r}")
    return problems


# the report prints six decimals, so an anchor may differ by half a unit
PRINT_TOL = 0.5e-6 + 1e-12

_ANCHORS = (
    ("entanglement boundary", r"entanglement boundary p\* = (\S+)", 7.0 - math.sqrt(45.0)),
    ("usefulness edge", r"teleportation usefulness boundary p = (\S+)", 0.25),
    ("w1 crossing", r"entanglement witness \(w1\) zero-crossing p = (\S+)", 2.0 / 7.0),
    ("fidelity at p = 0", r"optimal teleportation fidelity at p = 0: (\S+)", 7.0 / 9.0),
    ("concurrence at p = 0", r"concurrence at p = 0: (\S+)", 2.0 / 3.0),
)


def check_headlines(data: bytes) -> list:
    """Problems found in the headlines report; an empty list means it passed."""
    text = data.decode("utf-8")
    problems = []
    for name, pattern, anchor in _ANCHORS:
        match = re.search(pattern, text)
        if match is None:
            problems.append(f"{name}: line missing")
        elif not abs(float(match.group(1)) - anchor) <= PRINT_TOL:
            problems.append(f"{name}: {match.group(1)} != {anchor:.9f}")
    match = re.search(r"discord/concurrence crossing inside \[(\S+), (\S+)\]", text)
    if match is None:
        problems.append("discord/concurrence bracket: line missing")
    else:
        lo, hi = float(match.group(1)), float(match.group(2))
        if not (0.051 - PRINT_TOL <= lo < hi <= 0.052 + PRINT_TOL):
            problems.append(f"discord/concurrence bracket [{lo}, {hi}] not inside [0.051, 0.052]")
    return problems
