"""Parameter sweeps over (p, theta) grids, CSV emission, figure presets, and
the headline report.

A sweep walks the Cartesian grid in deterministic order (p outer, theta
inner, both ascending) and evaluates a requested set of named quantities at
every point.  The one cell that is undefined, the spin-flip concurrence of
a sub-normalized damped state, carries an explicit NA marker instead of
being dropped; any other rejected input or numerical failure aborts the
sweep.  CSV output is byte-deterministic: 12 significant digits, LF
newlines, the literal token NA.

Every column has one route: a function of the five numbers of the
family state (_P_ONLY) or of the cell's damped state (_DAMPED), on the
scalar core (``_xcore``), or the closed form fidelity_ad_closed_form.  The
headline report reads the same _P_ONLY entries.  No column needs numpy.
The per-point registry (``nmems.registry``, here as ``QUANTITIES``)
defines every column through the matrix API, which loads numpy; it is the
public per-point API and the tests' oracle, and the engine never calls
it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

from ._xcore import (
    _WITNESS_ENTRIES,
    UNIT,
    USEFULNESS_MARGIN,
    _adc_pair_x,
    _check_x_params,
    _damped_x,
    _family,
    _family_x,
    _require_unit,
    _spectrum_entropy,
    _x_chsh,
    _x_concurrence,
    _x_concurrence_wootters,
    _x_correlation_sum,
    _x_discord,
    _x_expectation,
    _x_fidelity,
    _x_params,
    _x_spectrum,
    fidelity_ad_closed_form,
)
from .errors import InputError

NA_TOKEN = "NA"

# how the damped state at a grid point is produced
MODE_CLOSED_FORM = "closed_form"   # nmems_ad closed form (trace-draining)
MODE_CORRELATED = "correlated"     # identical-index Kraus pair map
MODE_PRODUCT = "product"           # independent noise on each qubit
CHANNEL_MODES = (MODE_CLOSED_FORM, MODE_CORRELATED, MODE_PRODUCT)

# the columns of QUANTITIES, in its order, without importing the registry
QUANTITY_NAMES = (
    "concurrence", "concurrence_ad", "concurrence_wootters",
    "concurrence_ad_wootters", "fidelity", "fidelity_ad",
    "fidelity_ad_closed_form", "discord", "entropy", "entropy_ad", "mid",
    "chsh", "witness_generic", "witness_w1", "witness_stabilizer",
)


def __getattr__(name: str):
    # QUANTITIES is the registry's dict, the public per-point definition of
    # every column; the engine never calls it, and the registry loads numpy
    if name == "QUANTITIES":
        from .registry import QUANTITIES as quantities
        globals()[name] = quantities
        return quantities
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Each column below has the checks and messages of its QUANTITIES entry,
# and its bits, with two exceptions: witness_w1 has those of a BLAS kernel
# without fused multiply-adds (see _xcore._x_expectation), and the two
# spin-flip concurrences take K's singular values in closed form, a few ulp
# from the matrix route (see _xcore._x_concurrence_wootters).
# _require_unit returns None once its check passes.

# columns that read only nmems(p), on the (x, eigenvalues, trace tag) of
# _xcore._family(p); a sweep evaluates them once per p and shares the value
# across that p's thetas
_P_ONLY = {
    "concurrence": lambda x, vals, tag: _x_concurrence(*_x_params(*x)),
    "concurrence_wootters": lambda x, vals, tag: _x_concurrence_wootters(*x),
    "fidelity": lambda x, vals, tag: (
        _require_unit(tag, "teleportation fidelity") or _x_fidelity(*x)),
    "discord": lambda x, vals, tag: _require_unit(tag, "discord") or _x_discord(*x, vals),
    "entropy": lambda x, vals, tag: _spectrum_entropy(vals),
    "chsh": lambda x, vals, tag: _require_unit(tag, "CHSH criterion") or _x_chsh(*x),
    "witness_generic": lambda x, vals, tag: _x_expectation(_WITNESS_ENTRIES["generic"], *x),
    "witness_w1": lambda x, vals, tag: _x_expectation(_WITNESS_ENTRIES["w1"], *x),
    "witness_stabilizer": lambda x, vals, tag: (
        _x_expectation(_WITNESS_ENTRIES["stabilizer"], *x)),
}

# damped columns, on the (x, eigenvalues, trace tag) of the cell's damped
# state (_mode_damped_x, _xcore._x_spectrum) and the entropy of nmems(p),
# in every channel mode, with no Kraus channel and no per-cell state
_DAMPED = {
    "concurrence_ad": lambda x, vals, tag, entropy: _x_concurrence(*_x_params(*x)),
    # NA (None) where the damped state is sub-normalized
    "concurrence_ad_wootters": lambda x, vals, tag, entropy: (
        _x_concurrence_wootters(*x) if tag == UNIT else None),
    "fidelity_ad": lambda x, vals, tag, entropy: _x_fidelity(*x),
    "entropy_ad": lambda x, vals, tag, entropy: _spectrum_entropy(vals),
    "mid": lambda x, vals, tag, entropy: _spectrum_entropy(vals) - entropy,
}


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
            if isinstance(steps, bool) or not isinstance(steps, int) or steps < 1:
                raise InputError(f"step counts must be integers >= 1, got {steps!r}")
        if not self.quantities:
            raise InputError(
                "no quantities requested; choose from: " + ", ".join(QUANTITY_NAMES)
            )
        unknown = [q for q in self.quantities if q not in QUANTITY_NAMES]
        if unknown:
            raise InputError(
                f"unknown quantities {unknown}; choose from: " + ", ".join(QUANTITY_NAMES)
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


def _mode_damped_x(mode: str, p: float, theta: float) -> tuple:
    """(a, b, c, d, e) of ``registry._damped(p, theta, mode)``, with its
    bits and its range checks on theta or gamma; SweepSpec checks the grid's
    p range."""
    if mode == MODE_CLOSED_FORM:
        return _damped_x(p, theta)
    return _adc_pair_x(*_family_x(p), math.sin(theta) ** 2,
                       correlated=mode == MODE_CORRELATED)


def run_sweep(spec: SweepSpec) -> list:
    """Evaluate the grid; returns rows in (p outer, theta inner) order.

    The spin-flip concurrence of a sub-normalized damped state is undefined,
    held as None and emitted as NA; any InputError or NumericalError an
    evaluator raises propagates, so no partial grid is returned.

    Each p's family state passes nmems' checks once (``_xcore._family``);
    the _P_ONLY columns are evaluated from it once per p and shared by that
    p's thetas.  Each cell's damped state passes its checks once
    (``_mode_damped_x``, ``_xcore._x_spectrum``), and the _DAMPED columns
    are evaluated from it; fidelity_ad_closed_form is evaluated per cell.
    """
    theta_values = _grid(spec.theta_min, spec.theta_max, spec.theta_steps)
    p_only = [(name, _P_ONLY[name]) for name in spec.quantities if name in _P_ONLY]
    damped = [(name, _DAMPED[name]) for name in spec.quantities if name in _DAMPED]
    closed_form = "fidelity_ad_closed_form" in spec.quantities
    mode = spec.channel_mode
    rows = []
    for p in _grid(spec.p_min, spec.p_max, spec.p_steps):
        base = _family(p)
        shared = {name: column(*base) for name, column in p_only}
        entropy = _P_ONLY["entropy"](*base)
        for theta in theta_values:
            cells = dict(shared)
            if damped:
                x = _mode_damped_x(mode, p, theta)
                vals, tag = _x_spectrum(*x)
                for name, column in damped:
                    cells[name] = column(x, vals, tag, entropy)
            if closed_form:
                cells["fidelity_ad_closed_form"] = fidelity_ad_closed_form(p, theta)
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
    digits, NA for undefined cells, LF newlines.

    The bytes go to a temporary file next to ``path``, which replaces
    ``path`` only once all of them are written: a failed write leaves no
    partial CSV behind and any earlier file at ``path`` as it was.  A
    symbolic link is followed, so the file it names is replaced; a path
    that exists and is not a regular file (a pipe, or a device such as
    /dev/stdout) is written through instead.
    """
    if rows:
        columns = rows[0].columns()
        for row in rows:
            if row.columns() != columns:
                raise InputError("rows do not share an identical column set")
    else:
        columns = ()
    header = ",".join(("p", "theta") + columns)
    real = os.path.realpath(path)
    through = os.path.exists(real) and not os.path.isfile(real)
    head, tail = os.path.split(real)
    tmp = real if through else os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        try:
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                fh.write(header + "\n")
                for row in rows:
                    cells = [_format_value(row.p), _format_value(row.theta)]
                    cells.extend(_format_value(row.values[c]) for c in columns)
                    fh.write(",".join(cells) + "\n")
            if not through:
                os.replace(tmp, real)
        except BaseException:
            if not through:
                try:
                    os.remove(tmp)
                except OSError:
                    pass
            raise
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
        a, b, c, d, e = _x_params(*_family(p)[0])
        _check_x_params(a, b, c, d, e)
        return abs(c) - math.sqrt(a * e)
    return _bisect_sign_change(signed, 0.25, 0.32, tol=1e-9)


def witness_zero_crossing(name: str) -> float:
    """Mixing parameter where Tr(W nmems(p)) changes sign, for the witness
    ``name`` ("generic", "w1" or "stabilizer"), on its sweep column."""
    column = _P_ONLY[f"witness_{name}"]
    return _bisect_sign_change(lambda p: column(*_family(p)), 0.0, 1.0)


def usefulness_boundary() -> float:
    """Mixing parameter where the correlation criterion drops to N = 1."""
    def excess(p):
        x, _, tag = _family(p)
        _require_unit(tag, "teleportation fidelity")
        return _x_correlation_sum(*x) - 1.0 - 1e-9
    return _bisect_sign_change(excess, 0.0, 0.9)


def discord_concurrence_crossing() -> tuple[float, float]:
    """Bracket [lo, hi] containing the p where discord equals concurrence.

    Scans p over _grid(0.0, 0.292, 293): p = i * 0.292 / 292 from the
    integer index, so the bracket is 0.001 wide and the scan ends on
    p = 0.292 exactly.
    """
    prev_p = prev_gap = None
    for p in _grid(0.0, 0.292, 293):
        base = _family(p)
        gap = _P_ONLY["discord"](*base) - _P_ONLY["concurrence"](*base)
        if prev_gap is not None and prev_gap < 0.0 and gap >= 0.0:
            return prev_p, p
        prev_p, prev_gap = p, gap
    raise InputError("no discord/concurrence crossing found on [0, 0.292]")


def report_headlines() -> str:
    """Human-readable summary of every headline number, freshly computed.

    Every number comes from the family's five numbers (``_xcore``), and
    each one a sweep column also gives is read off that column's _P_ONLY
    entry; the report prints six decimals.
    """
    p_star = entanglement_boundary()
    w1_cross = witness_zero_crossing("w1")
    stab_cross = witness_zero_crossing("stabilizer")
    useful_edge = usefulness_boundary()
    base0 = _family(0.0)
    fid0 = _P_ONLY["fidelity"](*base0)
    conc0 = _P_ONLY["concurrence"](*base0)
    disc0 = _P_ONLY["discord"](*base0)
    lo, hi = discord_concurrence_crossing()
    default_grid = _grid(0.0, 0.292, 293)
    chsh = _P_ONLY["chsh"]
    chsh_grid_max = max(chsh(*_family(p)) for p in default_grid)
    full_grid = _grid(0.0, 1.0, 1001)
    chsh_full = [chsh(*_family(p)) for p in full_grid]
    chsh_full_max = max(chsh_full)
    any_violation = any(m > 1.0 + USEFULNESS_MARGIN for m in chsh_full)
    cf0 = fidelity_ad_closed_form(0.0, 0.0)

    lines = [
        "headline quantities for the GHZ/W-mixture family",
        f"entanglement boundary p* = {p_star:.6f}  (concurrence sign change)",
        f"teleportation usefulness boundary p = {useful_edge:.6f}  (correlation criterion N = 1)",
        f"entanglement witness (w1) zero-crossing p = {w1_cross:.6f}",
        f"stabilizer witness zero-crossing p = {stab_cross:.6f}",
        f"optimal teleportation fidelity at p = 0: {fid0:.6f}  (classical benchmark {2.0 / 3.0:.6f})",
        f"concurrence at p = 0: {conc0:.6f}",
        f"quantum discord at p = 0: {disc0:.6f}",
        f"discord/concurrence crossing inside [{lo:.6f}, {hi:.6f}]",
        f"CHSH criterion: max M = {chsh_grid_max:.6f} on the default p grid [0, 0.292]; "
        f"max M = {chsh_full_max:.6f} over p in [0, 1]; violation anywhere: {'yes' if any_violation else 'no'}",
        f"known inconsistency: the damped-fidelity closed form at theta = 0, p = 0 "
        f"gives {cf0:.6f}, while the correlation-matrix criterion on the identical "
        f"undamped state gives {fid0:.6f}; the closed form does not reduce "
        f"to the undamped formula at zero damping.",
    ]
    return "\n".join(lines) + "\n"
