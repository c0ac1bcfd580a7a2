"""Parameter sweeps over (p, theta) grids, CSV emission, figure presets, and
the headline report.

A sweep walks the Cartesian grid in deterministic order (p outer, theta
inner, both ascending) and evaluates a requested set of named quantities at
every point.  Every cell is a number: a rejected input or a numerical
failure at any cell aborts the sweep.  CSV output is byte-deterministic:
12 significant digits and LF newlines.

One generator (``_walk``) evaluates every sweep, one p-row (each column
at one p, over every theta) at a time: ``iter_sweep`` flattens the rows
lazily, ``run_sweep`` collects them as SweepRows, and ``stream_csv``,
the CLI's path, writes each p-row with one write, so memory holds one
p-row.  A row is evaluated whole: its cells' spectrum checks, in theta
order, run before the columns' own checks.

Every column has one route on the scalar core (``_xcore``), declared once
in ``_COLUMNS`` by its kind: a function of the family state (per p, which
the headline report reads too), of a p-row's damped states as five
columns (a damped row), or of the closed-form fidelity's factored parts (a
closed-form row).  A row's damped states are checked
once, in one pass (``_xcore._x_row``) with ``_x_spectrum``'s checks
(finite entries, the eigenvalue floor, the trace window); entropy_ad and
mid share one entropy of each cell's eigenvalues, the fidelity columns
take a float, with no result tuple, and the concurrence columns add only
the coherence bound |c| <= sqrt(b d) + 1e-9, which those checks do not
imply (``_xcore._x_concurrences``).  No column needs
numpy.  The per-point registry (``nmems.registry``, here as
``QUANTITIES``) defines every column through the matrix API, which loads
numpy: the public per-point API and the tests' oracle, which the engine
never calls.
"""

import math
import os

from ._xcore import (
    _WITNESS_ENTRIES,
    CHANNEL_MODES,
    MODE_CLOSED_FORM,
    MODE_CORRELATED,
    MODE_PRODUCT,
    USEFULNESS_MARGIN,
    _as_float,
    _check_coherence,
    _check_mode,
    _closed_form_fidelity,
    _closed_form_fidelity_p,
    _damped_columns,
    _family,
    _is_number,
    _require_unit,
    _spectrum_entropy,
    _theta_factors,
    _x_chsh,
    _x_concurrence_wootters,
    _x_concurrences,
    _x_correlation_sum,
    _x_discord,
    _x_expectation,
    _x_fidelity,
    _x_row,
    _x_spectrum_concurrence,
    fidelity_ad_closed_form,
)
from .errors import InputError

# CHANNEL_MODES and the MODE_* names, imported above, live in _xcore with
# their one check (_check_mode) and damping maps; they are public here


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
# spin-flip concurrences read K's singular values sqrt(a e), sqrt(a e),
# sqrt(b d) +- |c| off the five numbers, a few ulp from the matrix route
# (see _xcore._x_concurrence_wootters).
# _require_unit returns None once its check passes.

# Every column, in QUANTITIES' order: name -> (kind, function, what it
# reads).  The kind fixes the function's arguments and the value's layout:
# per p, f(x, vals, tag) of _xcore._family(p), one float for all the p's
# thetas; a damped row, f(cols, s_ads, s) of the p-row's damped states as
# five columns (_xcore._damped_columns, checked by _xcore._x_row), their
# entropies and nmems(p)'s (None unless a requested column reads them), a
# list over the thetas; a closed-form row, f(pf, thetas) of p's factors
# (_xcore._closed_form_fidelity_p) and the thetas' (_theta_factors), a list.
_PER_P, _DAMPED_ROW, _CLOSED_FORM_ROW = "per p", "damped row", "closed-form row"
_ROW_ENTROPIES, _FAMILY_ENTROPY = "row entropies", "family entropy"
_COLUMNS = {
    "concurrence": (_PER_P, lambda x, vals, tag: _x_spectrum_concurrence(*x), ()),
    "concurrence_ad": (_DAMPED_ROW, lambda cols, s_ads, s: _x_concurrences(*cols), ()),
    "concurrence_wootters": (_PER_P, lambda x, vals, tag: _x_concurrence_wootters(*x), ()),
    "concurrence_ad_wootters": (_DAMPED_ROW, lambda cols, s_ads, s: [
        _x_concurrence_wootters(*x) for x in zip(*cols)], ()),
    "fidelity": (_PER_P, lambda x, vals, tag: (
        _require_unit(tag, "teleportation fidelity") or _x_fidelity(*x)), ()),
    "fidelity_ad": (_DAMPED_ROW, lambda cols, s_ads, s: [_x_fidelity(*x) for x in zip(*cols)], ()),
    "fidelity_ad_closed_form": (_CLOSED_FORM_ROW, lambda pf, thetas: (
        _closed_form_fidelity(pf, thetas[0])), ()),
    "discord": (_PER_P, lambda x, vals, tag: (
        _require_unit(tag, "discord") or _x_discord(*x, vals)), ()),
    "entropy": (_PER_P, lambda x, vals, tag: _spectrum_entropy(vals), ()),
    "entropy_ad": (_DAMPED_ROW, lambda cols, s_ads, s: s_ads, (_ROW_ENTROPIES,)),
    "mid": (_DAMPED_ROW, lambda cols, s_ads, s: [s_ad - s for s_ad in s_ads],
            (_ROW_ENTROPIES, _FAMILY_ENTROPY)),
    "chsh": (_PER_P, lambda x, vals, tag: _require_unit(tag, "CHSH criterion") or _x_chsh(*x), ()),
    "witness_generic": (_PER_P, lambda x, vals, tag: (
        _x_expectation(_WITNESS_ENTRIES["generic"], *x)), ()),
    "witness_w1": (_PER_P, lambda x, vals, tag: _x_expectation(_WITNESS_ENTRIES["w1"], *x), ()),
    "witness_stabilizer": (_PER_P, lambda x, vals, tag: (
        _x_expectation(_WITNESS_ENTRIES["stabilizer"], *x)), ()),
}
# the columns of QUANTITIES, in its order, without importing the registry
QUANTITY_NAMES = tuple(_COLUMNS)


class _Frozen:
    """What ``@dataclass(frozen=True)`` gives a class whose fields are named
    in ``_FIELDS``, without importing dataclasses (about 10 ms of every
    command's start-up): equality and hash on the tuple of the fields,
    between instances of one class only, a repr of the fields, and an
    AttributeError on every assignment or deletion after ``__init__``."""

    _FIELDS = ()

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._FIELDS)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# the most points a SweepSpec may ask for, on each axis and in all: far
# beyond every figure (the presets are 13,432 cells), and short of the
# memory the grids and a p-row take
_MAX_STEPS = 100_000
_MAX_CELLS = 10_000_000


class SweepSpec(_Frozen):
    """A validated sweep: the p and theta grids, the columns in output
    order and the channel mode.  Immutable; equal specs compare and hash
    equal."""

    _FIELDS = __match_args__ = (
        "p_min", "p_max", "p_steps", "theta_min", "theta_max", "theta_steps",
        "quantities", "channel_mode",
    )

    def __init__(self, p_min: float = 0.0, p_max: float = 0.292, p_steps: int = 293,
                 theta_min: float = 0.0, theta_max: float = math.pi / 4.0,
                 theta_steps: int = 46, quantities: tuple = (),
                 channel_mode: str = MODE_CLOSED_FORM):
        # each number as the range check takes it, a Python float (a Python
        # int stays, as the messages print it), so numpy's numbers hash,
        # print and grid as Python's
        p_min, p_max, theta_min, theta_max = (
            v if type(v) is int or not _is_number(v) else _as_float(v)
            for v in (p_min, p_max, theta_min, theta_max))
        for name, lo, hi in (("p", p_min, p_max), ("theta", theta_min, theta_max)):
            for end, value in (("min", lo), ("max", hi)):
                if not _is_number(value):
                    raise InputError(f"{name}_{end} must be a number, got {value!r}")
            try:
                finite = math.isfinite(lo) and math.isfinite(hi)
            except OverflowError:  # an int beyond the float range
                finite = False
            if not finite:
                raise InputError(f"{name} range must be finite")
            if lo > hi:
                raise InputError(f"{name}_min {lo!r} exceeds {name}_max {hi!r}")
        if not (0.0 <= p_min and p_max <= 1.0):
            raise InputError("p range must lie inside [0, 1]")
        if not (0.0 <= theta_min and theta_max <= math.pi / 2.0):
            raise InputError("theta range must lie inside [0, pi/2]")
        for name, steps in (("p", p_steps), ("theta", theta_steps)):
            if not _is_number(steps, integral=True) or steps < 1:
                raise InputError(f"step counts must be integers >= 1, got {steps!r}")
            if steps > _MAX_STEPS:
                raise InputError(f"{name}_steps {steps} exceeds the bound of "
                                 f"{_MAX_STEPS} points per axis")
        p_steps, theta_steps = int(p_steps), int(theta_steps)
        if p_steps * theta_steps > _MAX_CELLS:
            raise InputError(f"p_steps x theta_steps = {p_steps * theta_steps} exceeds "
                             f"the bound of {_MAX_CELLS} cells")
        # a one-point axis sits on its min; a max it would never reach is a
        # mistake, not a request
        for name, lo, hi, steps in (("p", p_min, p_max, p_steps),
                                    ("theta", theta_min, theta_max, theta_steps)):
            if steps == 1 and lo != hi:
                raise InputError(
                    f"{name}_steps is 1 but {name}_min {lo!r} differs from "
                    f"{name}_max {hi!r}; a one-point axis needs equal ends"
                )
        if isinstance(quantities, str):
            raise InputError(f"quantities must be a sequence of names, not the string {quantities!r}")
        names = tuple(_COLUMNS)  # a tuple: an unhashable name is unknown, not a TypeError
        if not quantities:
            raise InputError(
                "no quantities requested; choose from: " + ", ".join(names)
            )
        unknown = [q for q in quantities if q not in names]
        if unknown:
            raise InputError(
                f"unknown quantities {unknown}; choose from: " + ", ".join(names)
            )
        if len(set(quantities)) != len(quantities):
            raise InputError("duplicate quantity identifiers")
        _check_mode(channel_mode)
        vars(self).update(p_min=p_min, p_max=p_max, p_steps=p_steps, theta_min=theta_min,
                          theta_max=theta_max, theta_steps=theta_steps,
                          quantities=tuple(quantities), channel_mode=channel_mode)


class SweepRow(_Frozen):
    """One grid point of ``run_sweep``: p, theta and the values by column
    name.  Immutable, but ``values`` is a dict, so a row does not hash."""

    _FIELDS = __match_args__ = ("p", "theta", "values")

    def __init__(self, p: float, theta: float, values: dict | None = None):
        vars(self).update(p=p, theta=theta, values={} if values is None else values)

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


def _walk(spec: SweepSpec):
    """The sweep engine: yields (p, row) per p, ascending, where ``row[i]``
    is the value of ``spec.quantities[i]``: a float for a per-p column,
    else a list over the theta grid.  Lazy: each p-row is evaluated whole
    when it is asked for.

    Once: each theta's factors, with the range check on theta
    (``_xcore._theta_factors``), as seven columns.  Per p, kind by kind,
    each kind's columns in spec order: the family state with nmems' checks
    (``_xcore._family``) and the per-p columns; for damped rows, the row's
    damped states as five columns (``_xcore._damped_columns``), one pass
    of the checks on them in theta order, with their entropies if a column
    reads them (``_xcore._x_row``), the family state's entropy if a column
    reads it, then the damped rows, with their own checks; then the
    closed-form rows, on p's factors.  ``_xcore._mode_damped_x`` (a
    one-cell ``_damped_columns``), ``_xcore._x_spectrum`` and
    ``fidelity_ad_closed_form`` give one cell.
    """
    entries = [(i, *_COLUMNS[name]) for i, name in enumerate(spec.quantities)]
    per_p, damped, closed_form = ([(i, column) for i, k, column, _ in entries if k == kind]
                                  for kind in (_PER_P, _DAMPED_ROW, _CLOSED_FORM_ROW))
    reads = {what for *_, extra in entries for what in extra}
    mode = spec.channel_mode
    thetas = tuple(zip(*[_theta_factors(theta)
                         for theta in _grid(spec.theta_min, spec.theta_max, spec.theta_steps)]))
    for p in _grid(spec.p_min, spec.p_max, spec.p_steps):
        base = _family(p)
        row = [None] * len(entries)
        for i, column in per_p:
            row[i] = column(*base)
        if damped:
            cols = _damped_columns(mode, base[0], thetas)
            entropies = _x_row(*cols, _ROW_ENTROPIES in reads)
            entropy = _spectrum_entropy(base[1]) if _FAMILY_ENTROPY in reads else None
            for i, column in damped:
                row[i] = column(cols, entropies, entropy)
        for i, column in closed_form:
            row[i] = column(_closed_form_fidelity_p(p), thetas)
        yield p, row


def iter_sweep(spec: SweepSpec):
    """Evaluate the grid lazily: yields (p, theta, *values) per grid point
    in (p outer, theta inner) order, the values in ``spec.quantities``
    order, each laid out by its kind in ``_COLUMNS``.  Each p-row is
    evaluated whole when its first point is asked for (``_walk``), so an
    InputError or NumericalError at any of its cells propagates before
    that p's first point."""
    thetas = _grid(spec.theta_min, spec.theta_max, spec.theta_steps)
    n = len(thetas)
    per_theta = [_COLUMNS[name][0] != _PER_P for name in spec.quantities]
    for p, row in _walk(spec):
        columns = [v if listed else [v] * n for v, listed in zip(row, per_theta)]
        for values in zip(thetas, *columns):
            yield (p, *values)


def run_sweep(spec: SweepSpec) -> list:
    """Evaluate the whole grid; returns ``iter_sweep``'s rows as SweepRows,
    in the same order.  An error at any cell propagates, so no partial grid
    is returned."""
    names = spec.quantities
    return [SweepRow(p=row[0], theta=row[1], values=dict(zip(names, row[2:])))
            for row in iter_sweep(spec)]


def _format_value(v: float) -> str:
    # + 0.0 turns -0.0 (the entropy of a pure spectrum) into 0.0 and leaves
    # every other float as it is; stream_csv spells the format the same way
    return "%.12g" % (v + 0.0)


def _write_lines(path: str, header: str, lines) -> None:
    """Write the header and then each line of the iterable ``lines`` to
    ``path``, the shared writer of ``emit_csv`` and ``stream_csv``.

    The bytes go to a temporary file next to ``path``, which replaces
    ``path`` only once all of them are written: a failed write, or an error
    raised while ``lines`` is consumed, leaves no partial CSV behind and
    any earlier file at ``path`` as it was.  A symbolic link is followed,
    so the file it names is replaced.  A path that exists and is not a
    regular file (a pipe, or a device such as /dev/stdout) is written
    through instead, as given (/dev/stdout on a pipe resolves to no name
    that opens); ``lines`` is then consumed in full before the first byte
    is written, so a reader of a pipe gets the whole CSV or nothing.
    Either target is opened before ``lines`` is read, so one that cannot
    be opened, such as a directory, fails before the sweep is evaluated.
    """
    through = os.path.exists(path) and not os.path.isfile(path)
    real = path if through else os.path.realpath(path)
    head, tail = os.path.split(real)
    tmp = real if through else os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        try:
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                if through:
                    lines = list(lines)
                fh.write(header)
                for line in lines:
                    fh.write(line)
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


def _csv_line(cells) -> str:
    return ",".join(cells) + "\n"


def emit_csv(rows: list, path: str) -> None:
    """Write SweepRows as UTF-8 CSV: header p,theta,<quantities>, 12
    significant digits, LF newlines; see ``_write_lines`` for how ``path``
    is replaced."""
    if rows:
        columns = rows[0].columns()
        for row in rows:
            if row.columns() != columns:
                raise InputError("rows do not share an identical column set")
    else:
        columns = ()
    lines = (
        _csv_line(map(_format_value, (row.p, row.theta, *(row.values[c] for c in columns))))
        for row in rows
    )
    _write_lines(path, _csv_line(("p", "theta") + columns), lines)


def stream_csv(spec: SweepSpec, path: str) -> None:
    """Write the sweep of ``spec`` to ``path`` as ``emit_csv`` writes
    ``run_sweep(spec)``, byte for byte, with one write per p-row: one line
    template takes p's and the per-p cells' text (one small ``%``), and
    its repeat over the thetas one ``%`` of their text and the per-theta
    values.  An error at any cell (checked in ``_walk``'s order, a p-row
    before its first line) leaves no CSV and no temporary file, and any
    earlier file at ``path`` as it was; a pipe or device target gets
    nothing (``_write_lines``)."""
    thetas = [_format_value(theta)
              for theta in _grid(spec.theta_min, spec.theta_max, spec.theta_steps)]
    n = len(thetas)
    per_theta = [_COLUMNS[name][0] != _PER_P for name in spec.quantities]
    per_p = [i for i, flag in enumerate(per_theta) if not flag]
    listed = [i for i, flag in enumerate(per_theta) if flag]
    # p's and the per-p cells' slots open, theta's and the others' escaped
    line = _csv_line(["%s", "%%s"] + ["%%.12g" if flag else "%s" for flag in per_theta])
    width = 1 + len(listed)

    def lines():
        for p, row in _walk(spec):
            cells = [None] * (n * width)
            cells[::width] = thetas
            for k, i in enumerate(listed, 1):
                cells[k::width] = [v + 0.0 for v in row[i]]
            texts = tuple([_format_value(p)] + [_format_value(row[i]) for i in per_p])
            yield (line % texts) * n % tuple(cells)

    _write_lines(path, _csv_line(("p", "theta") + spec.quantities), lines())


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


def _bisect_sign_change(f, lo: float, hi: float) -> float:
    """Root of a continuous scalar function bracketed by [lo, hi], to 1e-12."""
    f_lo = f(lo)
    f_hi = f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0) == (f_hi > 0):
        raise InputError(f"no sign change on [{lo}, {hi}]")
    while hi - lo > 1e-12:
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
    """Mixing parameter where the family's concurrence reaches zero, 7 - 3 sqrt 5."""
    # the family's five numbers are positive on [0.25, 0.32], so no clamp
    def signed(p):
        a, b, c, d, e = _family(p)[0]
        _check_coherence(b, c, d)
        return abs(c) - math.sqrt(a * e)
    return _bisect_sign_change(signed, 0.25, 0.32)


def witness_zero_crossing(name: str) -> float:
    """Mixing parameter where Tr(W nmems(p)) changes sign, for the witness
    ``name`` ("w1" or "stabilizer"), on its sweep column."""
    column = _COLUMNS[f"witness_{name}"][1]
    return _bisect_sign_change(lambda p: column(*_family(p)), 0.0, 1.0)


def usefulness_boundary() -> float:
    """Mixing parameter where the correlation criterion drops to N = 1:
    1/4 less 3.75e-10.  N = 4(1 - p)/3 + |(8p - 2)/6| is 1 on all of
    [1/4, 1], so N - 1 has no sign change (a bisection of it returns 0.9);
    N - 1 - 1e-9, bisected here, crosses zero once, at 1/4 - 6e-9/16."""
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
    discord, concurrence = _COLUMNS["discord"][1], _COLUMNS["concurrence"][1]
    prev_p = prev_gap = None
    for p in _grid(0.0, 0.292, 293):
        base = _family(p)
        gap = discord(*base) - concurrence(*base)
        if prev_gap is not None and prev_gap < 0.0 and gap >= 0.0:
            return prev_p, p
        prev_p, prev_gap = p, gap
    raise InputError("no discord/concurrence crossing found on [0, 0.292]")


def report_headlines() -> str:
    """Human-readable summary of every headline number, freshly computed.

    Every number comes from the family's five numbers (``_xcore``), and
    each one a sweep column also gives is read off that column's per-p
    entry in ``_COLUMNS``; the report prints six decimals.
    """
    p_star = entanglement_boundary()
    w1_cross = witness_zero_crossing("w1")
    stab_cross = witness_zero_crossing("stabilizer")
    useful_edge = usefulness_boundary()
    base0 = _family(0.0)
    fid0 = _COLUMNS["fidelity"][1](*base0)
    conc0 = _COLUMNS["concurrence"][1](*base0)
    disc0 = _COLUMNS["discord"][1](*base0)
    lo, hi = discord_concurrence_crossing()
    default_grid = _grid(0.0, 0.292, 293)
    chsh = _COLUMNS["chsh"][1]
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
