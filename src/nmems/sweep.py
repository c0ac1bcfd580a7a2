"""Parameter sweeps over (p, theta) grids, CSV emission, figure presets, and
the headline report.

A sweep walks the Cartesian grid in deterministic order (p outer, theta
inner, both ascending) and evaluates a requested set of named quantities at
every point.  Cells whose quantity is undefined at that point (for example a
spin-flip concurrence of a sub-normalized damped state) carry an explicit NA
marker instead of being dropped.  CSV output is byte-deterministic: 12
significant digits, LF newlines, the literal token NA.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from .channels import KrausChannel, adc, apply_correlated_pair, apply_product_pair
from .errors import InputError
from .measures import (
    _spectrum_entropy,
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
from .states import (
    DensityMatrix,
    XStateParams,
    _damped_x,
    _x_spectrum,
    nmems,
    nmems_ad,
    x_params_of,
)
from .witnesses import evaluate, witness_generic, witness_stabilizer, witness_w1

NA_TOKEN = "NA"

# how the damped state at a grid point is produced
MODE_CLOSED_FORM = "closed_form"   # nmems_ad closed form (trace-draining)
MODE_CORRELATED = "correlated"     # identical-index Kraus pair map
MODE_PRODUCT = "product"           # independent noise on each qubit
CHANNEL_MODES = (MODE_CLOSED_FORM, MODE_CORRELATED, MODE_PRODUCT)


def _damping_channel(theta: float) -> KrausChannel:
    """The amplitude-damping channel of strength sin^2 theta."""
    return adc(math.sin(theta) ** 2)


class _Point:
    """One grid point; the damped state is built on first use only.

    ``channel`` is the point's damping channel when the caller already holds
    it (a sweep builds one per theta); otherwise the Kraus modes build it.
    """

    def __init__(self, p: float, theta: float, mode: str, base: DensityMatrix,
                 channel: KrausChannel | None = None):
        self.p = p
        self.theta = theta
        self.mode = mode
        self.base = base
        self.channel = channel

    @functools.cached_property
    def damped(self) -> DensityMatrix:
        if self.mode == MODE_CLOSED_FORM:
            return nmems_ad(self.p, self.theta)
        channel = self.channel or _damping_channel(self.theta)
        if self.mode == MODE_CORRELATED:
            return apply_correlated_pair(channel, self.base)
        return apply_product_pair(channel, self.base)


_WITNESSES = {
    "generic": witness_generic(2),
    "w1": witness_w1(),
    "stabilizer": witness_stabilizer(),
}


# Per-point definitions, and the oracle for the closed_form _KERNEL below.
# fidelity_ad runs the Horodecki formula on the raw correlation matrix of
# the mode's damped state, with no renormalization: in closed_form and
# correlated that state is sub-normalized for theta > 0 (fidelity_ad is
# 2/3 at p = 0.1, theta = 0.6 in closed_form), while fidelity rejects
# non-unit input.
QUANTITIES = {
    "concurrence": lambda pt: concurrence_x(x_params_of(pt.base)),
    "concurrence_ad": lambda pt: concurrence_x(x_params_of(pt.damped)),
    "concurrence_wootters": lambda pt: concurrence_wootters(pt.base),
    "concurrence_ad_wootters": lambda pt: concurrence_wootters(pt.damped),
    "fidelity": lambda pt: teleportation_fidelity(pt.base).fidelity,
    "fidelity_ad": lambda pt: fidelity_from_correlation(
        correlation_matrix(pt.damped)
    ).fidelity,
    "fidelity_ad_closed_form": lambda pt: fidelity_ad_closed_form(pt.p, pt.theta),
    "discord": lambda pt: discord_x(pt.base).discord,
    "entropy": lambda pt: von_neumann_entropy(pt.base),
    "entropy_ad": lambda pt: von_neumann_entropy(pt.damped),
    # the entropy the channel mode's own damped map adds; in closed_form
    # this is mid_adc(p, theta), with the same arithmetic
    "mid": lambda pt: von_neumann_entropy(pt.damped) - von_neumann_entropy(pt.base),
    "chsh": lambda pt: chsh_criterion(pt.base).m_value,
    "witness_generic": lambda pt: evaluate(_WITNESSES["generic"], pt.base).expectation,
    "witness_w1": lambda pt: evaluate(_WITNESSES["w1"], pt.base).expectation,
    "witness_stabilizer": lambda pt: evaluate(
        _WITNESSES["stabilizer"], pt.base
    ).expectation,
}

# columns that read only pt.base, so depend on p alone; a sweep evaluates
# them once per p and shares the value across that p's thetas
P_ONLY = frozenset({
    "concurrence", "concurrence_wootters", "fidelity", "discord", "entropy",
    "chsh", "witness_generic", "witness_w1", "witness_stabilizer",
})

# closed_form columns a sweep computes from the damped state's five numbers
# (see _kernel_cells), with the values and NA cells of QUANTITIES
_KERNEL = frozenset({"concurrence_ad", "entropy_ad", "mid"})


@dataclass(frozen=True)
class SweepSpec:
    p_min: float = 0.0
    p_max: float = 0.292
    p_steps: int = 293
    theta_min: float = 0.0
    theta_max: float = math.pi / 4.0
    theta_steps: int = 46
    quantities: tuple = ()
    channel_mode: str = MODE_CLOSED_FORM

    def __post_init__(self):
        for name, lo, hi in (("p", self.p_min, self.p_max),
                             ("theta", self.theta_min, self.theta_max)):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise InputError(f"{name} range must be finite")
            if lo > hi:
                raise InputError(f"{name}_min {lo!r} exceeds {name}_max {hi!r}")
        if not (0.0 <= self.p_min and self.p_max <= 1.0):
            raise InputError("p range must lie inside [0, 1]")
        if not (0.0 <= self.theta_min and self.theta_max <= math.pi / 2.0):
            raise InputError("theta range must lie inside [0, pi/2]")
        for steps in (self.p_steps, self.theta_steps):
            if not isinstance(steps, int) or steps < 1:
                raise InputError(f"step counts must be integers >= 1, got {steps!r}")
        if not self.quantities:
            raise InputError(
                "no quantities requested; choose from: " + ", ".join(QUANTITIES)
            )
        unknown = [q for q in self.quantities if q not in QUANTITIES]
        if unknown:
            raise InputError(
                f"unknown quantities {unknown}; choose from: " + ", ".join(QUANTITIES)
            )
        if len(set(self.quantities)) != len(self.quantities):
            raise InputError("duplicate quantity identifiers")
        if self.channel_mode not in CHANNEL_MODES:
            raise InputError(
                f"unknown channel mode {self.channel_mode!r}; "
                f"choose from: {', '.join(CHANNEL_MODES)}"
            )
        object.__setattr__(self, "quantities", tuple(self.quantities))


@dataclass(frozen=True)
class SweepRow:
    p: float
    theta: float
    values: dict = field(default_factory=dict)

    def columns(self) -> tuple:
        return tuple(self.values.keys())


def _grid(lo: float, hi: float, steps: int) -> list:
    """``steps`` evenly spaced points from lo to hi, both ends exact.

    At i = steps - 1, lo + i * (hi - lo) / (steps - 1) can overshoot hi by
    an ulp, which the damped evaluators reject, so the last point is hi
    itself.
    """
    if steps == 1:
        return [lo]
    return [lo + i * (hi - lo) / (steps - 1) for i in range(steps - 1)] + [hi]


def _cell(name: str, point: _Point):
    """One CSV cell: the quantity's value, or None where it is undefined."""
    try:
        return float(QUANTITIES[name](point))
    except InputError:
        return None


def _kernel_cells(names: list, p: float, theta: float, base_entropy: float | None) -> dict:
    """The _KERNEL columns ``names`` of the closed_form cell (p, theta).

    Works on the five numbers of nmems_ad(p, theta) and their eigenvalues
    (states._x_spectrum), which are that state's bits and pass its checks,
    so every value and NA is the one QUANTITIES gives: a state the checks
    reject makes all these columns NA.
    """
    try:
        a, b, c, d, e = x = _damped_x(p, theta)
        vals = _x_spectrum(*x)
    except InputError:
        return dict.fromkeys(names)
    out = {}
    if "concurrence_ad" in names:
        # the parameters x_params_of reads off the built state
        try:
            out["concurrence_ad"] = concurrence_x(XStateParams(
                a=max(a, 0.0), b=max(b, 0.0), c=complex(c), d=max(d, 0.0), e=max(e, 0.0)
            ))
        except InputError:
            out["concurrence_ad"] = None
    if "entropy_ad" in names or "mid" in names:
        entropy = _spectrum_entropy(vals)
        out["entropy_ad"] = entropy
        if "mid" in names:
            out["mid"] = entropy - base_entropy
    return out


def run_sweep(spec: SweepSpec) -> list:
    """Evaluate the grid; returns rows in (p outer, theta inner) order.

    Undefined cells (an evaluator rejecting its input at that point) hold
    None and are emitted as NA.  P_ONLY columns are evaluated once per p
    and shared by that p's thetas; in closed_form the _KERNEL columns skip
    the per-point state; the Kraus channel modes build one damping channel
    per theta for the whole sweep.
    """
    theta_values = _grid(spec.theta_min, spec.theta_max, spec.theta_steps)
    if spec.channel_mode == MODE_CLOSED_FORM:
        channels = [None] * len(theta_values)
        kernel = [name for name in spec.quantities if name in _KERNEL]
    else:
        channels = [_damping_channel(theta) for theta in theta_values]
        kernel = []
    p_only = [name for name in spec.quantities if name in P_ONLY]
    per_point = [name for name in spec.quantities
                 if name not in P_ONLY and name not in kernel]
    rows = []
    for p in _grid(spec.p_min, spec.p_max, spec.p_steps):
        base = nmems(p)
        first = _Point(p, theta_values[0], spec.channel_mode, base)
        shared = {name: _cell(name, first) for name in p_only}
        base_entropy = von_neumann_entropy(base) if "mid" in kernel else None
        for theta, channel in zip(theta_values, channels):
            cells = dict(shared)
            if kernel:
                cells.update(_kernel_cells(kernel, p, theta, base_entropy))
            if per_point:
                point = _Point(p, theta, spec.channel_mode, base, channel)
                cells.update((name, _cell(name, point)) for name in per_point)
            values = {name: cells[name] for name in spec.quantities}
            rows.append(SweepRow(p=p, theta=theta, values=values))
    return rows


def _format_value(v) -> str:
    if v is None:
        return NA_TOKEN
    # + 0.0 turns -0.0 (the entropy of a pure spectrum) into 0.0 and leaves
    # every other float as it is
    return f"{v + 0.0:.12g}"


def emit_csv(rows: list, path: str) -> None:
    """Write rows as UTF-8 CSV: header p,theta,<quantities>, 12 significant
    digits, NA for undefined cells, LF newlines."""
    if rows:
        columns = rows[0].columns()
        for row in rows:
            if row.columns() != columns:
                raise InputError("rows do not share an identical column set")
    else:
        columns = ()
    header = ",".join(("p", "theta") + columns)
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(header + "\n")
            for row in rows:
                cells = [_format_value(row.p), _format_value(row.theta)]
                cells.extend(_format_value(row.values[c]) for c in columns)
                fh.write(",".join(cells) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path!r}: {exc}") from exc


# figure presets; p grids stop one step short of the open right endpoint
PRESETS = {
    "fig1": SweepSpec(
        p_min=0.0, p_max=0.291, p_steps=292,
        theta_min=0.0, theta_max=math.pi / 2.0, theta_steps=46,
        quantities=("concurrence", "concurrence_ad"),
    ),
    "fig2": SweepSpec(
        p_min=0.0, p_max=0.249, p_steps=250,
        theta_min=0.0, theta_max=math.pi / 2.0, theta_steps=46,
        quantities=("fidelity", "fidelity_ad_closed_form"),
    ),
    "fig3": SweepSpec(
        p_min=0.0, p_max=0.291, p_steps=292,
        theta_min=0.0, theta_max=math.pi / 4.0, theta_steps=46,
        quantities=("mid", "fidelity_ad_closed_form"),
    ),
    "fig4": SweepSpec(
        p_min=0.0, p_max=0.249, p_steps=250,
        theta_min=0.0, theta_max=0.0, theta_steps=1,
        quantities=("concurrence", "discord", "fidelity"),
    ),
}


def preset_spec(name: str) -> SweepSpec:
    try:
        return PRESETS[name]
    except KeyError:
        raise InputError(
            f"unknown preset {name!r}; choose from: {', '.join(sorted(PRESETS))}"
        ) from None


def _bisect_sign_change(f, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Root of a continuous scalar function bracketed by [lo, hi]."""
    f_lo = f(lo)
    f_hi = f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0) == (f_hi > 0):
        raise InputError(f"no sign change on [{lo}, {hi}]")
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def entanglement_boundary() -> float:
    """Mixing parameter where the family's concurrence reaches zero."""
    def signed(p):
        xp = x_params_of(nmems(p))
        return abs(xp.c) - math.sqrt(xp.a * xp.e)
    return _bisect_sign_change(signed, 0.25, 0.32, tol=1e-9)


def witness_zero_crossing(name: str) -> float:
    w = _WITNESSES[name]
    return _bisect_sign_change(
        lambda p: evaluate(w, nmems(p)).expectation, 0.0, 1.0
    )


def usefulness_boundary() -> float:
    """Mixing parameter where the correlation criterion drops to N = 1."""
    return _bisect_sign_change(
        lambda p: teleportation_fidelity(nmems(p)).n_value - 1.0 - 1e-9, 0.0, 0.9
    )


def discord_concurrence_crossing(step: float = 1e-3) -> tuple[float, float]:
    """Bracket [lo, hi] containing the p where discord equals concurrence."""
    prev_p = 0.0
    prev_gap = (
        discord_x(nmems(0.0)).discord - concurrence_x(x_params_of(nmems(0.0)))
    )
    p = step
    while p <= 0.292:
        gap = discord_x(nmems(p)).discord - concurrence_x(x_params_of(nmems(p)))
        if (prev_gap < 0.0) and (gap >= 0.0):
            return prev_p, p
        prev_p, prev_gap = p, gap
        p += step
    raise InputError("no discord/concurrence crossing found on [0, 0.292]")


def report_headlines() -> str:
    """Human-readable summary of every headline number, freshly computed."""
    p_star = entanglement_boundary()
    w1_cross = witness_zero_crossing("w1")
    stab_cross = witness_zero_crossing("stabilizer")
    useful_edge = usefulness_boundary()
    base0 = nmems(0.0)
    fid0 = teleportation_fidelity(base0)
    conc0 = concurrence_x(x_params_of(base0))
    disc0 = discord_x(base0).discord
    lo, hi = discord_concurrence_crossing()
    default_grid = _grid(0.0, 0.292, 293)
    chsh_grid_max = max(chsh_criterion(nmems(p)).m_value for p in default_grid)
    full_grid = _grid(0.0, 1.0, 1001)
    chsh_full = [chsh_criterion(nmems(p)) for p in full_grid]
    chsh_full_max = max(r.m_value for r in chsh_full)
    any_violation = any(r.violates for r in chsh_full)
    cf0 = fidelity_ad_closed_form(0.0, 0.0)

    lines = [
        "headline quantities for the GHZ/W-mixture family",
        f"entanglement boundary p* = {p_star:.6f}  (concurrence sign change)",
        f"teleportation usefulness boundary p = {useful_edge:.6f}  (correlation criterion N = 1)",
        f"entanglement witness (w1) zero-crossing p = {w1_cross:.6f}",
        f"stabilizer witness zero-crossing p = {stab_cross:.6f}",
        f"optimal teleportation fidelity at p = 0: {fid0.fidelity:.6f}  (classical benchmark {2.0 / 3.0:.6f})",
        f"concurrence at p = 0: {conc0:.6f}",
        f"quantum discord at p = 0: {disc0:.6f}",
        f"discord/concurrence crossing inside [{lo:.6f}, {hi:.6f}]",
        f"CHSH criterion: max M = {chsh_grid_max:.6f} on the default p grid [0, 0.292]; "
        f"max M = {chsh_full_max:.6f} over p in [0, 1]; violation anywhere: {'yes' if any_violation else 'no'}",
        f"known inconsistency: the damped-fidelity closed form at theta = 0, p = 0 "
        f"gives {cf0:.6f}, while the correlation-matrix criterion on the identical "
        f"undamped state gives {fid0.fidelity:.6f}; the closed form does not reduce "
        f"to the undamped formula at zero damping.",
    ]
    return "\n".join(lines) + "\n"
