import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nmems
from nmems import InputError, NumericalError, _xcore, channels, measures, registry, states, sweep
from nmems.cli import main, parse_angle
from nmems.measures import (
    concurrence_x,
    correlation_matrix,
    fidelity_ad_closed_form,
    fidelity_from_correlation,
    mid_adc,
)
from nmems.states import DensityMatrix, nmems_ad, x_params_of
from nmems.sweep import (
    CHANNEL_MODES,
    PRESETS,
    QUANTITIES,
    QUANTITY_NAMES,
    SweepRow,
    SweepSpec,
    emit_csv,
    iter_sweep,
    preset_spec,
    report_headlines,
    stream_csv,
    _DAMPED,
    _P_ONLY,
    _grid,
    run_sweep,
)

import oracles


def _tiny_spec(**overrides):
    base = dict(
        p_min=0.0,
        p_max=0.2,
        p_steps=3,
        theta_min=0.0,
        theta_max=math.pi / 4,
        theta_steps=3,
        quantities=("concurrence", "concurrence_ad"),
    )
    base.update(overrides)
    return SweepSpec(**base)


def _per_point(name: str, p: float, theta: float, mode: str) -> float:
    """QUANTITIES[name](p, theta, mode) as a float; any error propagates."""
    return float(QUANTITIES[name](p, theta, mode))


def _per_point_values(spec: SweepSpec, p: float, theta: float) -> dict:
    """The row QUANTITIES gives at (p, theta), one cell at a time: the
    oracle of every shortcut run_sweep takes."""
    return {name: _per_point(name, p, theta, spec.channel_mode) for name in spec.quantities}


def _bits(values: dict) -> dict:
    """The values with each float as its exact hex form (-0.0 != 0.0)."""
    return {name: v.hex() for name, v in values.items()}


def _spin_flip(x: tuple) -> float:
    """``_xcore._x_concurrence_wootters`` of the five numbers ``x``, after
    ``_x_spectrum``'s checks, as the sweep chains them."""
    _xcore._x_spectrum(*x)
    return _xcore._x_concurrence_wootters(*x)


def _scalar_replays(spec: SweepSpec, row: SweepRow, values: dict) -> dict:
    """``_bits(values)`` with witness_w1, concurrence_wootters and
    concurrence_ad_wootters, where ``values`` has them, taken from their
    scalar replays of the matrix products at the row's grid point instead
    (``_xcore._x_expectation``, ``_xcore._x_concurrence_wootters``)."""
    want = _bits(values)
    x = _xcore._family_x(row.p)
    replays = {
        "witness_w1": lambda: _xcore._x_expectation(_xcore._WITNESS_ENTRIES["w1"], *x),
        "concurrence_wootters": lambda: _spin_flip(x),
        "concurrence_ad_wootters": lambda: _spin_flip(
            _xcore._mode_damped_x(spec.channel_mode, row.p, row.theta)),
    }
    for name, replay in replays.items():
        if name in want:
            want[name] = replay().hex()
    return want


def _spy(monkeypatch, module, name: str) -> list:
    """Replace ``module.name`` by a spy that records each call's arguments
    in the returned list and then calls the real function."""
    seen = []
    real = getattr(module, name)

    def spy(*args):
        seen.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, spy)
    return seen


@st.composite
def _specs(draw, modes=CHANNEL_MODES, names=tuple(QUANTITIES), max_steps=4):
    """Small grids anywhere in the domain, endpoints p = 1 and theta = pi/2
    included, with a random ordered subset of ``names``."""
    ends = st.sampled_from([0.0, 1.0])
    p_lo, p_hi = sorted(draw(st.tuples(st.floats(0.0, 1.0) | ends, st.floats(0.0, 1.0) | ends)))
    quarter = st.sampled_from([0.0, math.pi / 2])
    t_lo, t_hi = sorted(draw(st.tuples(
        st.floats(0.0, math.pi / 2) | quarter, st.floats(0.0, math.pi / 2) | quarter
    )))
    p_steps = draw(st.integers(1, max_steps))
    theta_steps = draw(st.integers(1, max_steps))
    # a one-point axis needs equal ends
    return SweepSpec(
        p_min=p_lo, p_max=p_lo if p_steps == 1 else p_hi, p_steps=p_steps,
        theta_min=t_lo, theta_max=t_lo if theta_steps == 1 else t_hi, theta_steps=theta_steps,
        quantities=tuple(draw(st.lists(st.sampled_from(names), min_size=1, unique=True))),
        channel_mode=draw(st.sampled_from(modes)),
    )


def _hook_damping(monkeypatch, hook, thetas=_grid(0.0, math.pi / 4, 3)):
    """Make the sweep's damped state at each cell, in every mode,
    ``hook(family_x, theta)``, or the real one where the hook returns None,
    for the grid's ``thetas`` (those of ``_tiny_spec`` by default).

    The sweep builds each p-row's damped states as five columns
    (``_xcore._damped_columns``), the d column the b column, and the c
    column the b column too where the mode keeps b == c, and then checks
    them in one row pass (``_xcore._x_row``).  A hooked state must have
    b == d; the hooked row keeps the b and c columns one list where every
    hooked state has b == c, so it takes the row pass's b == c arm, and
    gives c a list of its own otherwise."""
    real = sweep._damped_columns

    def columns(mode, x, factors):
        cols = real(mode, x, factors)
        assert len(cols[0]) == len(thetas)
        injected = [(k, hooked) for k, hooked in enumerate(hook(x, t) for t in thetas) if hooked]
        if not injected:
            return cols
        a, b, c, _, e = (list(col) for col in cols)
        for k, (ak, bk, ck, dk, ek) in injected:
            assert bk == dk, "a hooked state needs b == d"
            a[k], b[k], c[k], e[k] = ak, bk, ck, ek
        if cols[2] is cols[1] and all(x[1] == x[2] for _, x in injected):
            c = b
        return a, b, c, b, e

    monkeypatch.setattr(sweep, "_damped_columns", columns)


class TestSweepSpecValidation:
    def test_unknown_quantity_rejected_before_compute(self):
        with pytest.raises(InputError, match="unknown quantities"):
            _tiny_spec(quantities=("concurrence", "nonsense"))

    def test_empty_quantities_rejected(self):
        with pytest.raises(InputError):
            _tiny_spec(quantities=())

    def test_duplicate_quantities_rejected(self):
        with pytest.raises(InputError):
            _tiny_spec(quantities=("concurrence", "concurrence"))

    def test_inverted_range_rejected(self):
        with pytest.raises(InputError):
            _tiny_spec(p_min=0.3, p_max=0.1)

    def test_bad_channel_mode_rejected(self):
        # the spec makes the one check of a mode, _xcore._check_mode: a
        # membership test, so an unhashable value gets the InputError too
        for mode in ("sideways", "Correlated", "correlated ", None, []):
            message = (f"unknown channel mode {mode!r}; "
                       "choose from: closed_form, correlated, product")
            for check in (lambda: _tiny_spec(channel_mode=mode),
                          lambda: _xcore._check_mode(mode)):
                with pytest.raises(InputError) as got:
                    check()
                assert str(got.value) == message

    def test_zero_steps_rejected(self):
        with pytest.raises(InputError):
            _tiny_spec(p_steps=0)

    @pytest.mark.parametrize("field", ["p_min", "p_max", "theta_min", "theta_max"])
    @pytest.mark.parametrize("value", ["0.1", None, True, [0.1], 0.1j])
    def test_non_numeric_range_rejected(self, field, value):
        # an InputError that names the field, not math.isfinite's TypeError
        with pytest.raises(InputError) as got:
            _tiny_spec(**{field: value})
        assert str(got.value) == f"{field} must be a number, got {value!r}"

    @pytest.mark.parametrize("quantities", ["concurrence", "", "mid,entropy"])
    def test_string_quantities_rejected(self, quantities):
        # a string is not read name by name, character by character
        with pytest.raises(InputError) as got:
            _tiny_spec(quantities=quantities)
        assert str(got.value) == (
            f"quantities must be a sequence of names, not the string {quantities!r}")

    def test_integer_range_ends_are_numbers(self):
        spec = _tiny_spec(p_min=0, p_max=1, p_steps=2, theta_min=0, theta_max=1)
        assert [row[:2] for row in iter_sweep(spec)][::3] == [(0.0, 0.0), (1.0, 0.0)]

    @pytest.mark.parametrize("field", ["p_steps", "theta_steps"])
    @pytest.mark.parametrize("steps", [2.5, 3.0, True])
    def test_non_integer_steps_rejected(self, field, steps):
        # run_sweep's grids need int counts; 3.0 and True are rejected as
        # well as 2.5
        with pytest.raises(InputError):
            _tiny_spec(**{field: steps})

    def test_theta_bound_is_exactly_quarter_turn(self):
        # the same pi/2 bound as nmems_ad: no slack past the theta the
        # damped columns accept
        _tiny_spec(theta_max=math.pi / 2)
        with pytest.raises(InputError):
            _tiny_spec(theta_max=math.nextafter(math.pi / 2, 2.0))

    @pytest.mark.parametrize("axis", ["p", "theta"])
    def test_one_point_axis_needs_equal_ends(self, axis):
        # one step sits on the min; a max it would drop is rejected (the
        # messages are pinned in TestSweepSpecContract)
        with pytest.raises(InputError, match=f"^{axis}_steps is 1 "):
            _tiny_spec(**{f"{axis}_steps": 1, f"{axis}_max": 0.2})
        spec = _tiny_spec(**{f"{axis}_steps": 1, f"{axis}_min": 0.2, f"{axis}_max": 0.2})
        assert {getattr(row, axis) for row in run_sweep(spec)} == {0.2}


class TestSweepSpecContract:
    # the fields, defaults, equality, hash, repr, immutability and messages
    # SweepSpec had as a frozen dataclass
    FIELDS = ("p_min", "p_max", "p_steps", "theta_min", "theta_max", "theta_steps",
              "quantities", "channel_mode")

    def test_field_order_and_defaults(self):
        spec = SweepSpec(quantities=("concurrence",))
        assert SweepSpec.__match_args__ == self.FIELDS
        assert [getattr(spec, name) for name in self.FIELDS] == [
            0.0, 0.292, 293, 0.0, math.pi / 4, 46, ("concurrence",), "closed_form",
        ]
        positional = SweepSpec(0.1, 0.2, 2, 0.0, 0.0, 1, ["mid"], "product")
        assert [getattr(positional, name) for name in self.FIELDS] == [
            0.1, 0.2, 2, 0.0, 0.0, 1, ("mid",), "product",
        ]

    def test_equal_specs_compare_and_hash_equal(self):
        a = _tiny_spec(quantities=("concurrence", "mid"))
        b = _tiny_spec(quantities=["concurrence", "mid"])
        assert a == b and not a != b
        assert hash(a) == hash(b) and len({a, b}) == 1
        assert a != _tiny_spec(quantities=("mid", "concurrence"))
        assert a != _tiny_spec(quantities=("concurrence", "mid"), channel_mode="product")
        assert a.__eq__(tuple(getattr(a, name) for name in self.FIELDS)) is NotImplemented
        assert PRESETS["fig1"] == preset_spec("fig1")

    def test_repr(self):
        assert repr(SweepSpec(quantities=["concurrence"])) == (
            "SweepSpec(p_min=0.0, p_max=0.292, p_steps=293, theta_min=0.0, "
            "theta_max=0.7853981633974483, theta_steps=46, quantities=('concurrence',), "
            "channel_mode='closed_form')"
        )

    def test_fields_cannot_be_set_or_deleted(self):
        spec = _tiny_spec()
        for name in (*self.FIELDS, "other"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(spec, name, 0.1)
        with pytest.raises(AttributeError, match="cannot delete field 'p_min'"):
            del spec.p_min
        assert spec == _tiny_spec()

    @pytest.mark.parametrize("overrides, message", [
        (dict(p_max=math.inf), "p range must be finite"),
        (dict(theta_min=math.nan), "theta range must be finite"),
        (dict(p_min=0.3, p_max=0.1), "p_min 0.3 exceeds p_max 0.1"),
        (dict(theta_min=0.5, theta_max=0.25), "theta_min 0.5 exceeds theta_max 0.25"),
        (dict(p_min=-0.1), "p range must lie inside [0, 1]"),
        (dict(p_max=1.5), "p range must lie inside [0, 1]"),
        (dict(theta_min=-0.1), "theta range must lie inside [0, pi/2]"),
        (dict(theta_max=2.0), "theta range must lie inside [0, pi/2]"),
        (dict(p_steps=0), "step counts must be integers >= 1, got 0"),
        (dict(theta_steps=2.5), "step counts must be integers >= 1, got 2.5"),
        (dict(p_steps=True), "step counts must be integers >= 1, got True"),
        (dict(p_steps=1), "p_steps is 1 but p_min 0.0 differs from p_max 0.2; "
                          "a one-point axis needs equal ends"),
        (dict(theta_steps=1), "theta_steps is 1 but theta_min 0.0 differs from "
                              "theta_max 0.7853981633974483; a one-point axis needs equal ends"),
        (dict(quantities=()), "no quantities requested; choose from: "
                              + ", ".join(QUANTITY_NAMES)),
        (dict(quantities=("concurrence", "nonsense")),
         "unknown quantities ['nonsense']; choose from: " + ", ".join(QUANTITY_NAMES)),
        (dict(quantities=("mid", "mid")), "duplicate quantity identifiers"),
        (dict(channel_mode="sideways"),
         "unknown channel mode 'sideways'; choose from: closed_form, correlated, product"),
        # ints beyond the float range, which math.isfinite cannot take
        (dict(p_max=10**400), "p range must be finite"),
        (dict(theta_min=-10**400), "theta range must be finite"),
    ])
    def test_every_rejection_message(self, overrides, message):
        with pytest.raises(InputError) as got:
            _tiny_spec(**overrides)
        assert str(got.value) == message


class TestGrid:
    @settings(max_examples=300, deadline=None)
    @given(
        lo=st.floats(0.0, 1.0),
        width=st.floats(0.0, 1.0),
        steps=st.integers(2, 300),
    )
    def test_points_stay_inside_and_hit_both_ends(self, lo, width, steps):
        hi = lo + width
        points = _grid(lo, hi, steps)
        assert len(points) == steps
        assert points[0] == lo and points[-1] == hi
        assert all(lo <= x <= hi for x in points)

    @pytest.mark.parametrize("steps", [14, 27, 48])
    def test_quarter_turn_endpoint_writes_no_na(self, tmp_path, steps):
        # lo + i*(hi-lo)/(steps-1) overshoots pi/2 by an ulp at these counts
        assert _grid(0.0, math.pi / 2, steps)[-1] == math.pi / 2
        out = tmp_path / "edge.csv"
        code = main(
            [
                "sweep", "--p-steps", "2",
                "--theta-max", "pi/2", "--theta-steps", str(steps),
                "--quantities", "concurrence_ad,mid,entropy_ad",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert "NA" not in out.read_text()


class TestRunSweep:
    def test_row_ordering_p_outer_theta_inner(self):
        rows = run_sweep(_tiny_spec())
        coords = [(r.p, r.theta) for r in rows]
        assert coords == sorted(coords)
        assert len(rows) == 9

    def test_values_match_direct_evaluation(self):
        rows = run_sweep(_tiny_spec())
        for row in rows:
            want = concurrence_x(x_params_of(nmems_ad(row.p, row.theta)))
            assert abs(row.values["concurrence_ad"] - want) < 1e-14

    def test_sub_normalized_cells_are_raw_values(self):
        # every theta > 0 damped state is sub-normalized in closed_form and
        # correlated; the spin-flip concurrence is the raw one, trace t
        # times that of the renormalized state, as concurrence_ad is
        for mode in ("closed_form", "correlated"):
            spec = _tiny_spec(quantities=("concurrence_ad_wootters", "concurrence_ad"),
                              channel_mode=mode)
            rows = run_sweep(spec)
            for row in rows:
                rho = registry._damped(row.p, row.theta, mode)
                assert rho.is_unit() == (row.theta == 0.0)
                value = row.values["concurrence_ad_wootters"]
                want = rho.trace_value * measures.concurrence_wootters(rho.renormalized())
                assert abs(value - want) <= 4 * sys.float_info.epsilon, (mode, row)
                assert abs(value - row.values["concurrence_ad"]) <= 4 * sys.float_info.epsilon
            assert any(row.values["concurrence_ad_wootters"] > 0.0 for row in rows if row.theta)

    def test_product_mode_has_no_na(self):
        spec = _tiny_spec(
            quantities=("concurrence_ad_wootters",), channel_mode="product"
        )
        rows = run_sweep(spec)
        assert all(r.values["concurrence_ad_wootters"] is not None for r in rows)

    def test_channel_modes_disagree_on_trace_sensitive_quantities(self):
        closed = run_sweep(_tiny_spec(quantities=("entropy_ad",)))
        product = run_sweep(
            _tiny_spec(quantities=("entropy_ad",), channel_mode="product")
        )
        gaps = [
            abs(a.values["entropy_ad"] - b.values["entropy_ad"])
            for a, b in zip(closed, product)
            if a.theta > 0.0
        ]
        assert max(gaps) > 1e-3

    def test_correlated_mode_matches_closed_form_at_p0(self):
        closed = run_sweep(
            _tiny_spec(p_max=0.0, p_steps=1, quantities=("entropy_ad",))
        )
        correlated = run_sweep(
            _tiny_spec(
                p_max=0.0,
                p_steps=1,
                quantities=("entropy_ad",),
                channel_mode="correlated",
            )
        )
        for a, b in zip(closed, correlated):
            assert abs(a.values["entropy_ad"] - b.values["entropy_ad"]) < 1e-12

    def test_mid_follows_channel_mode(self):
        mids = {}
        for mode in CHANNEL_MODES:
            row = run_sweep(
                _tiny_spec(
                    p_min=0.1, p_max=0.1, p_steps=1,
                    theta_min=0.6, theta_max=0.6, theta_steps=1,
                    quantities=("mid", "entropy_ad", "entropy"),
                    channel_mode=mode,
                )
            )[0]
            v = row.values
            assert v["mid"] == v["entropy_ad"] - v["entropy"], mode
            mids[mode] = v["mid"]
        assert mids["closed_form"] == mid_adc(0.1, 0.6)
        assert mids["correlated"] != mids["closed_form"]

    @pytest.mark.parametrize("mode", CHANNEL_MODES)
    def test_hoisted_sweep_matches_per_cell_evaluation(self, mode):
        # _P_ONLY columns once per p, and the _DAMPED columns from five
        # numbers: both must equal the per-point route exactly; witness_w1
        # and the spin-flip concurrences equal their scalar replays of the
        # matrix products, whose bits depend on the BLAS kernel (test_xcore
        # pins the two routes together)
        spec = _tiny_spec(quantities=tuple(QUANTITIES), channel_mode=mode)
        rows = run_sweep(spec)
        assert len(rows) == 9
        for row in rows:
            assert list(row.values) == list(spec.quantities)
            want = _scalar_replays(spec, row, _per_point_values(spec, row.p, row.theta))
            for name, got in _bits(row.values).items():
                assert got == want[name], (mode, row.p, row.theta, name)
        if mode != "product":
            # the grid reaches sub-normalized damped states: theta > 0
            assert not all(registry._damped(row.p, row.theta, mode).is_unit()
                           for row in rows)

    @settings(max_examples=90, deadline=None)
    @given(spec=_specs(names=(*sorted(_DAMPED), "concurrence", "entropy")))
    def test_kernel_matches_per_point_route(self, spec):
        for row in run_sweep(spec):
            want = _scalar_replays(spec, row, _per_point_values(spec, row.p, row.theta))
            assert _bits(row.values) == want

    def test_kernel_rejection_aborts_like_per_point_route(self, monkeypatch):
        # five numbers the checks reject abort the sweep with the error the
        # per-point route raises at that cell, in every mode, in both arms
        # of the row pass (b == c, and b == d != c).  A state that only the
        # coherence bound rejects needs b != d, which no damped row holds;
        # test_xcore rejects one on the column itself
        thetas = _grid(0.0, math.pi / 4, 5)
        bad = [
            (1, (0.5, 0.25, 0.0, 0.25, 0.1)),  # trace 1.1
            (1, (0.4, 0.2, 0.2, 0.2, 0.3)),  # trace 1.1, b == c
            (2, (0.3, 0.3, 0.31, 0.3, 0.0)),  # eigenvalue -0.01
            (2, (-0.01, 0.2, 0.2, 0.2, 0.61)),  # eigenvalue -0.01, b == c
            (3, (0.25, 0.25, math.nan, 0.25, 0.0)),
            (3, (math.nan, 0.25, 0.25, 0.25, 0.0)),
            (4, (0.25, 0.25, 0.0, 0.25, math.inf)),
        ]
        injected = {}
        real_damped = registry._damped

        def damped(p, theta, mode_):
            # the per-point route validates the same five numbers densely
            x = injected.get(theta)
            if x is None:
                return real_damped(p, theta, mode_)
            return DensityMatrix.from_matrix(oracles.x_matrix(*x))

        _hook_damping(monkeypatch, lambda x, theta: injected.get(theta), thetas)
        monkeypatch.setattr(registry, "_damped", damped)
        for k, x in bad:
            injected.clear()
            injected[thetas[k]] = x
            for mode in CHANNEL_MODES:
                spec = _tiny_spec(
                    theta_steps=5, quantities=("concurrence", *sorted(_DAMPED)),
                    channel_mode=mode,
                )
                with pytest.raises(InputError) as got:
                    run_sweep(spec)
                with pytest.raises(InputError) as want:
                    _per_point_values(spec, 0.0, thetas[k])
                assert str(got.value) == str(want.value), (k, mode)

    def test_kernel_correlation_rejection_aborts(self, monkeypatch):
        # no valid state breaks |t_ij| <= 1 + 1e-9; a tighter bound that
        # only some cells break aborts the sweep, as it fails those cells
        # on the per-point route
        def tight(largest):
            if largest > 0.5:
                raise InputError("correlation entries exceed 0.5")

        # the sweep reads the bound in _xcore, the per-point route in measures
        monkeypatch.setattr(_xcore, "_check_correlation_bound", tight)
        monkeypatch.setattr(measures, "_check_correlation_bound", tight)
        for mode in CHANNEL_MODES:
            spec = _tiny_spec(
                theta_steps=5, quantities=("fidelity_ad", "entropy_ad"), channel_mode=mode
            )
            rejected = 0
            for p in _grid(spec.p_min, spec.p_max, spec.p_steps):
                for theta in _grid(spec.theta_min, spec.theta_max, spec.theta_steps):
                    try:
                        _per_point_values(spec, p, theta)
                    except InputError:
                        rejected += 1
            assert 0 < rejected < 15, mode
            with pytest.raises(InputError, match="exceed 0.5"):
                run_sweep(spec)

    @pytest.mark.parametrize("mode", CHANNEL_MODES)
    def test_every_cell_is_a_finite_number(self, mode):
        # every column over the whole domain, endpoints included, the
        # sub-normalized damped states of closed_form and correlated too
        spec = SweepSpec(
            p_min=0.0, p_max=1.0, p_steps=41,
            theta_min=0.0, theta_max=math.pi / 2, theta_steps=21,
            quantities=tuple(QUANTITIES), channel_mode=mode,
        )
        sub_normalized = 0
        for row in run_sweep(spec):
            for name, value in row.values.items():
                assert isinstance(value, float), (row.p, row.theta, name)
                assert math.isfinite(value), (row.p, row.theta, name)
            sub_normalized += not registry._damped(row.p, row.theta, mode).is_unit()
        assert (sub_normalized > 0) == (mode != "product")

    def test_kernel_builds_no_state_per_cell(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("damped state or channel built")

        for module, name in (
            (registry, "nmems_ad"), (states, "nmems_ad"), (registry, "adc"),
            (channels, "adc"), (channels, "kraus_channel"),
            (registry, "apply_correlated_pair"), (channels, "apply_correlated_pair"),
            (registry, "apply_product_pair"), (channels, "apply_product_pair"),
        ):
            monkeypatch.setattr(module, name, boom)
        monkeypatch.setattr(DensityMatrix, "from_matrix", classmethod(boom))
        monkeypatch.setattr(states.XStateParams, "__post_init__", boom)
        for mode in CHANNEL_MODES:
            rows = run_sweep(_tiny_spec(
                theta_steps=5, quantities=tuple(sorted(_DAMPED)), channel_mode=mode
            ))
            assert len(rows) == 15
            # no DensityMatrix either, not even for a spin-flip concurrence
            # of a sub-normalized state
            assert all(isinstance(v, float) for row in rows for v in row.values.values())

    def test_kernel_numerical_error_aborts(self, monkeypatch):
        # in the family state's spectrum or in a damped row's pass
        def diverge(*x):
            raise NumericalError("no convergence")

        for module, name in ((_xcore, "_x_eigenvalues"), (sweep, "_x_row")):
            with monkeypatch.context() as patch:
                patch.setattr(module, name, diverge)
                for mode in CHANNEL_MODES:
                    with pytest.raises(NumericalError):
                        run_sweep(_tiny_spec(quantities=("mid",), channel_mode=mode))

    @pytest.mark.parametrize("p_min, p_max, theta_min, theta_max", [
        (0.9, 1.0, 0.0, math.pi / 2),  # p = 1 beside theta = pi/2 (gamma = 1)
        (1.0 - 1e-8, 1.0 - 1e-8, 0.0, 0.0),
        (0.0, 0.3, 1.0, math.pi / 2),
    ])
    def test_closed_form_cells_are_the_public_function(self, p_min, p_max, theta_min,
                                                       theta_max):
        # the sweep takes the closed form's theta and p factors once each;
        # every cell must still have the bits of the per-point function
        steps = {"p_steps": 1 if p_min == p_max else 3,
                 "theta_steps": 1 if theta_min == theta_max else 4}
        for mode in CHANNEL_MODES:
            spec = SweepSpec(p_min=p_min, p_max=p_max, theta_min=theta_min,
                             theta_max=theta_max, quantities=("mid", "fidelity_ad_closed_form"),
                             channel_mode=mode, **steps)
            rows = run_sweep(spec)
            assert len(rows) == steps["p_steps"] * steps["theta_steps"]
            assert {row.p for row in rows} >= {p_max}
            assert {row.theta for row in rows} >= {theta_max}
            for row in rows:
                got = row.values["fidelity_ad_closed_form"]
                assert got.hex() == fidelity_ad_closed_form(row.p, row.theta).hex()

    def test_p_only_column_is_evaluated_once_per_p(self, monkeypatch):
        # on the family state of each p; an InputError at one p aborts
        calls = []
        rejected = []

        def chsh(x, vals, tag):
            calls.append(x)
            if x in rejected:
                raise InputError("rejected")
            return 0.5

        monkeypatch.setitem(_P_ONLY, "chsh", chsh)
        spec = _tiny_spec(quantities=("chsh", "entropy_ad"))
        rows = run_sweep(spec)
        family = [_xcore._family_x(p) for p in (0.0, 0.1, 0.2)]
        assert calls == family
        assert [row.values["chsh"] for row in rows] == [0.5] * 9
        calls.clear()
        rejected.append(family[1])
        with pytest.raises(InputError, match="rejected"):
            run_sweep(spec)
        assert calls == family[:2]

    def test_first_row_evaluates_one_p(self, monkeypatch):
        # iter_sweep is lazy: the first row needs the first p's family state
        # and columns only
        seen = []
        real = sweep._family

        def family(p):
            seen.append(p)
            return real(p)

        monkeypatch.setattr(sweep, "_family", family)
        spec = _tiny_spec(quantities=tuple(QUANTITIES), p_steps=1000)
        rows = iter_sweep(spec)
        assert seen == []
        first = next(rows)
        assert seen == [0.0]
        assert first[:2] == (0.0, 0.0) and len(first) == 2 + len(QUANTITIES)
        for _ in range(spec.theta_steps - 1):
            next(rows)
        assert seen == [0.0]
        next(rows)
        assert seen == [0.0, _grid(0.0, 0.2, 1000)[1]]

    @pytest.mark.parametrize("mode", CHANNEL_MODES)
    def test_engine_work_is_counted_per_p_theta_and_cell(self, monkeypatch, tmp_path, mode):
        # a preset-sized stream_csv: one family state per p, one set of
        # factors per theta, one set of damped columns and one row pass per
        # p with a damped column and none without, no spectrum or image per
        # cell (only the family state's per p), no atan2 (every state on the
        # grid has b == d), and one string of theta_steps lines written per p
        families = _spy(monkeypatch, sweep, "_family")
        factors = _spy(monkeypatch, sweep, "_theta_factors")
        columns = _spy(monkeypatch, sweep, "_damped_columns")
        passes = _spy(monkeypatch, sweep, "_x_row")
        spectra = _spy(monkeypatch, _xcore, "_x_spectrum")
        angles = _spy(monkeypatch, math, "atan2")
        monkeypatch.setattr(_xcore, "_DAMPING", {})
        written = []
        write_lines = sweep._write_lines

        def record(path, header, lines):
            write_lines(path, header, (written.append(chunk) or chunk for chunk in lines))

        monkeypatch.setattr(sweep, "_write_lines", record)
        base = PRESETS["fig1"]
        n_p, n_theta = base.p_steps, base.theta_steps
        for quantities, damped in ((("concurrence", "mid", "fidelity_ad_closed_form",
                                     "concurrence_ad"), n_p),
                                   (PRESETS["fig2"].quantities, 0)):
            spec = SweepSpec(p_min=base.p_min, p_max=base.p_max, p_steps=n_p,
                             theta_min=base.theta_min, theta_max=base.theta_max,
                             theta_steps=n_theta, quantities=quantities, channel_mode=mode)
            for seen in (families, factors, columns, passes, spectra, angles, written):
                seen.clear()
            stream_csv(spec, str(tmp_path / "counted.csv"))
            assert len(families) == n_p
            assert len(factors) == n_theta
            assert len(columns) == len(passes) == damped
            assert all(len(args[0]) == n_theta for args in passes)
            assert len(spectra) == n_p
            assert angles == []
            assert [chunk.count("\n") for chunk in written] == [n_theta] * n_p

    def test_p_row_runs_every_spectrum_check_before_column_checks(self, monkeypatch):
        # in one p-row, a later cell past the trace window is rejected before
        # an earlier cell that fails only a column's own check;
        # iter_sweep yields every row of the p before, and none of that p.
        # No damped state fails the coherence or correlation bound alone, so
        # each is tightened to reject the earlier cell's |c| = 0.475 and
        # t_xx = 0.95, and no real cell of the grid (|c| <= 1/3)
        thetas = _grid(0.0, math.pi / 4, 5)
        row_p = _xcore._family_x(0.1)
        earlier = {thetas[1]: (0.025, 0.475, 0.475, 0.475, 0.025)}
        trace = {thetas[3]: (0.5, 0.25, 0.0, 0.25, 0.1)}
        injected = {}
        _hook_damping(monkeypatch, lambda x, theta: x == row_p and injected.get(theta),
                      thetas)
        for column, check, rejects in (
            ("concurrence_ad", "_check_coherence", lambda b, c, d: abs(c) > 0.45),
            ("fidelity_ad", "_check_correlation_bound", lambda largest: largest > 0.9),
        ):
            def tight(*args, real=getattr(_xcore, check), check=check, rejects=rejects):
                if rejects(*args):
                    raise InputError(f"{check} rejects the earlier cell")
                return real(*args)

            with monkeypatch.context() as patch:
                patch.setattr(_xcore, check, tight)
                for mode in CHANNEL_MODES:
                    spec = _tiny_spec(theta_steps=5, quantities=(column, "entropy_ad"),
                                      channel_mode=mode)
                    injected.update(earlier)
                    injected.update(trace)
                    rows = iter_sweep(spec)
                    assert [next(rows)[0] for _ in thetas] == [0.0] * 5
                    with pytest.raises(InputError,
                                       match=r"^density matrix trace 1\.1 outside"):
                        next(rows)
                    injected.clear()
                    injected.update(earlier)
                    with pytest.raises(InputError, match=f"^{check} rejects the earlier cell"):
                        run_sweep(spec)
                    injected.clear()

    @pytest.mark.parametrize("mode", CHANNEL_MODES)
    @pytest.mark.parametrize("quantities, calls", [
        # one damped entropy per cell, and the family's once per p, only
        # where a column reads them
        (("entropy_ad", "mid"), 9 + 3),
        (("mid",), 9 + 3),
        (("entropy_ad",), 9),
        (("concurrence_ad", "fidelity_ad"), 0),
    ])
    def test_each_entropy_is_taken_once(self, monkeypatch, mode, quantities, calls):
        # the family's in the engine, the damped cells' in the one row pass
        # per p, which takes them only when asked to
        family = _spy(monkeypatch, sweep, "_spectrum_entropy")
        passes = _spy(monkeypatch, sweep, "_x_row")
        spec = _tiny_spec(quantities=quantities, channel_mode=mode)
        rows = run_sweep(spec)
        assert len(family) == 3 * ("mid" in quantities)
        assert len(passes) == 3
        damped = [len(args[0]) for args in passes if args[5]]
        assert len(family) + sum(damped) == calls
        for row in rows:
            assert _bits(row.values) == _bits(_per_point_values(spec, row.p, row.theta))

    @pytest.mark.parametrize("mode", CHANNEL_MODES)
    def test_fidelity_columns_build_no_fidelity_result(self, monkeypatch, mode):
        seen = _spy(monkeypatch, measures, "_fidelity_of")
        rows = run_sweep(_tiny_spec(quantities=("fidelity", "fidelity_ad"), channel_mode=mode))
        assert seen == []
        assert len(rows) == 9

    @pytest.mark.parametrize("mode", CHANNEL_MODES)
    def test_concurrence_columns_make_only_the_coherence_check(self, monkeypatch, mode):
        # _x_spectrum has checked the five numbers and the column clamps
        # them; the full XStateParams checks would run again on every cell
        seen = _spy(monkeypatch, states, "_check_x_params")
        bounds = _spy(monkeypatch, _xcore, "_check_coherence")
        rows = run_sweep(_tiny_spec(quantities=("concurrence", "concurrence_ad"),
                                    channel_mode=mode))
        assert seen == []
        assert len(bounds) == 3 + 9
        assert len(rows) == 9

    @settings(max_examples=40, deadline=None)
    @given(spec=_specs(max_steps=3))
    def test_iter_sweep_rows_are_run_sweep_rows(self, spec):
        rows = run_sweep(spec)
        assert [(row.p, row.theta, *row.values.values()) for row in rows] == list(
            iter_sweep(spec))
        assert all(row.columns() == spec.quantities for row in rows)

    @settings(max_examples=200, deadline=None)
    @given(
        p=st.floats(0.0, 1.0),
        theta=st.floats(0.0, math.pi / 2),
        mode=st.sampled_from(CHANNEL_MODES),
    )
    def test_damped_state_is_x_form_with_trace_at_most_one(self, p, theta, mode):
        damped = registry._damped(p, theta, mode)
        x_params_of(damped)
        assert damped.trace_value <= 1.0 + 1e-10
        if mode == "product":
            assert abs(damped.trace_value - 1.0) <= 1e-12


class TestEmitCsv:
    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], str(path))
        assert path.read_bytes() == b"p,theta\n"

    def test_single_row_formatting_contract(self, tmp_path):
        row = SweepRow(p=0.0, theta=0.0, values={"concurrence": 2.0 / 3.0})
        path = tmp_path / "one.csv"
        emit_csv([row], str(path))
        assert path.read_bytes() == b"p,theta,concurrence\n0,0,0.666666666667\n"

    @pytest.mark.parametrize("v", [
        0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, 1e16, -1e16, 2.0 / 3.0,
        0.1234567890125, 0.1234567890135, 999999999999.5, 1e-5, 1e-4, 123456789012.0,
        math.pi, 1.7976931348623157e308, 2.2250738585072014e-308,
    ])
    def test_template_format_is_format_value(self, v):
        # stream_csv's per-theta cells, "%.12g" % (v + 0.0), and every other
        # cell, _format_value(v), print one float the same way, as the
        # f-string format did
        assert "%.12g" % (v + 0.0) == sweep._format_value(v) == f"{v + 0.0:.12g}"

    def test_lf_newlines_only(self, tmp_path):
        rows = run_sweep(_tiny_spec())
        path = tmp_path / "lf.csv"
        emit_csv(rows, str(path))
        data = path.read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n")

    def test_round_trip_precision(self, tmp_path):
        rows = run_sweep(_tiny_spec(quantities=("concurrence", "discord", "mid")))
        path = tmp_path / "rt.csv"
        emit_csv(rows, str(path))
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["p", "theta"]
        for line, row in zip(lines[1:], rows):
            cells = line.split(",")
            parsed = [float(c) for c in cells]
            originals = [row.p, row.theta] + [row.values[q] for q in header[2:]]
            for got, want in zip(parsed, originals):
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_pure_spectrum_writes_zero_not_negative_zero(self, tmp_path):
        # at p = 0, theta = pi/2 the product image is |00><00|, whose entropy
        # sums to -0.0
        spec = _tiny_spec(
            p_max=0.0, p_steps=1, theta_max=math.pi / 2, theta_steps=2,
            quantities=("entropy_ad",), channel_mode="product",
        )
        value = run_sweep(spec)[-1].values["entropy_ad"]
        assert value == 0.0 and math.copysign(1.0, value) == -1.0
        out = tmp_path / "pure.csv"
        code = main([
            "sweep", "--p-max", "0", "--p-steps", "1",
            "--theta-max", "pi/2", "--theta-steps", "2",
            "--quantities", "entropy_ad", "--channel-mode", "product",
            "--out", str(out),
        ])
        assert code == 0
        assert out.read_text().splitlines()[-1] == "0,1.57079632679,0"

    @settings(max_examples=30, deadline=None)
    @given(spec=_specs(max_steps=3))
    def test_every_cell_parses_back(self, spec):
        rows = run_sweep(spec)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "rt.csv")
            emit_csv(rows, path)
            with open(path, encoding="utf-8", newline="") as fh:
                lines = fh.read().splitlines()
        assert lines[0] == ",".join(("p", "theta") + spec.quantities)
        for line, row in zip(lines[1:], rows, strict=True):
            cells = line.split(",")
            values = [row.p, row.theta] + [row.values[q] for q in spec.quantities]
            assert len(cells) == len(values)
            for cell, value in zip(cells, values):
                assert cell != "-0" and "nan" not in cell and "inf" not in cell
                parsed = float(cell)
                assert math.isfinite(parsed)
                assert parsed == float(f"{value:.12g}")

    @settings(max_examples=30, deadline=None)
    @given(spec=_specs(max_steps=3))
    def test_stream_csv_writes_the_bytes_of_emit_csv(self, spec):
        with tempfile.TemporaryDirectory() as tmp:
            streamed, emitted = os.path.join(tmp, "s.csv"), os.path.join(tmp, "e.csv")
            stream_csv(spec, streamed)
            emit_csv(run_sweep(spec), emitted)
            with open(streamed, "rb") as a, open(emitted, "rb") as b:
                assert a.read() == b.read()
            assert sorted(os.listdir(tmp)) == ["e.csv", "s.csv"]

    def test_mismatched_columns_rejected(self, tmp_path):
        rows = [
            SweepRow(p=0.0, theta=0.0, values={"a": 1.0}),
            SweepRow(p=0.0, theta=0.1, values={"b": 1.0}),
        ]
        with pytest.raises(InputError):
            emit_csv(rows, str(tmp_path / "bad.csv"))

    def test_pipe_is_written_through(self, tmp_path):
        # a path that is not a regular file is not replaced by one
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        got = []
        reader = threading.Thread(target=lambda: got.append(pipe.read_bytes()))
        reader.start()
        emit_csv([SweepRow(p=0.0, theta=0.0, values={"q": 1.0})], str(pipe))
        reader.join(timeout=10)
        assert got == [b"p,theta,q\n0,0,1\n"]
        assert stat.S_ISFIFO(pipe.stat().st_mode)
        assert [path.name for path in tmp_path.iterdir()] == ["pipe"]
        # a streamed sweep goes through the same way, with the same bytes
        spec = _tiny_spec(quantities=("concurrence", "mid"))
        emit_csv(run_sweep(spec), str(tmp_path / "want.csv"))
        got.clear()
        reader = threading.Thread(target=lambda: got.append(pipe.read_bytes()))
        reader.start()
        stream_csv(spec, str(pipe))
        reader.join(timeout=10)
        assert got == [(tmp_path / "want.csv").read_bytes()]

    def test_pipe_gets_no_bytes_when_a_cell_is_rejected(self, monkeypatch, tmp_path):
        # every row of a pipe target is evaluated before the first byte
        # goes out: a cell rejected at the end of the grid leaves the reader
        # nothing, where a streamed regular file would already hold rows
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        got = []
        reader = threading.Thread(target=lambda: got.append(pipe.read_bytes()), daemon=True)
        reader.start()

        def reject_last(x, theta):
            if x == _xcore._family_x(0.2) and theta == math.pi / 4:
                raise InputError("rejected at the last cell")

        _hook_damping(monkeypatch, reject_last)
        with pytest.raises(InputError, match="last cell"):
            stream_csv(_tiny_spec(quantities=("concurrence", "mid")), str(pipe))
        # the reader waits for a writer: open and close the pipe, once the
        # reader has it open (until then, or once it has read an end of
        # file, a non-blocking open finds no reader)
        for _ in range(1000):
            try:
                os.close(os.open(pipe, os.O_WRONLY | os.O_NONBLOCK))
                break
            except OSError:
                if not reader.is_alive():
                    break
                time.sleep(0.01)
        reader.join(timeout=10)
        assert got == [b""]
        assert [path.name for path in tmp_path.iterdir()] == ["pipe"]

    def test_symlink_target_is_replaced(self, tmp_path):
        # the link stays a link; the file it names gets the new bytes
        (tmp_path / "data").mkdir()
        target = tmp_path / "data" / "out.csv"
        target.write_bytes(b"old\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        emit_csv([SweepRow(p=0.0, theta=0.0, values={"q": 1.0})], str(link))
        assert link.is_symlink() and link.resolve() == target.resolve()
        assert target.read_bytes() == b"p,theta,q\n0,0,1\n"
        assert sorted(path.name for path in tmp_path.rglob("*")) == [
            "data", "link.csv", "out.csv"
        ]

    def test_unwritable_path_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            emit_csv([], str(tmp_path / "missing_dir" / "x.csv"))


class TestPresets:
    def test_all_four_exist(self):
        assert set(PRESETS) == {"fig1", "fig2", "fig3", "fig4"}

    def test_captioned_ranges(self):
        f1, f2, f3, f4 = (preset_spec(n) for n in ("fig1", "fig2", "fig3", "fig4"))
        for spec in (f1, f3):
            assert spec.p_min == 0.0 and spec.p_max < 0.292
        for spec in (f2, f4):
            assert spec.p_min == 0.0 and spec.p_max < 0.25
        assert f3.theta_max == math.pi / 4
        assert f1.theta_max == math.pi / 2

    def test_fig1_anchor_values(self):
        rows = run_sweep(preset_spec("fig1"))
        first = rows[0]
        assert first.p == 0.0 and first.theta == 0.0
        assert abs(first.values["concurrence"] - 2.0 / 3.0) < 1e-12
        assert abs(first.values["concurrence_ad"] - 2.0 / 3.0) < 1e-12
        top_theta = [r for r in rows if r.p == 0.0][-1]
        assert abs(top_theta.theta - math.pi / 2) < 1e-12
        assert top_theta.values["concurrence_ad"] == 0.0

    def test_fig2_anchor_values(self):
        rows = run_sweep(preset_spec("fig2"))
        fidelities = [r.values["fidelity"] for r in rows]
        assert abs(max(fidelities) - 7.0 / 9.0) < 1e-12
        assert abs(rows[0].values["fidelity_ad_closed_form"] - 11.0 / 18.0) < 1e-12

    def test_fig4_anchor_values(self):
        rows = run_sweep(preset_spec("fig4"))
        assert abs(rows[0].values["discord"] - 0.56) < 0.01
        assert len(rows) == 250

    def test_unknown_preset_rejected(self):
        with pytest.raises(InputError):
            preset_spec("fig9")


class TestHeadlines:
    def test_contains_all_boundary_numbers(self):
        text = report_headlines()
        for token in (
            "0.291796",  # entanglement boundary
            "0.285714",  # w1 witness crossing (2/7)
            "0.250000",  # stabilizer crossing / usefulness edge
            "0.777778",  # fidelity at p = 0
            "0.666667",  # concurrence at p = 0 and classical benchmark
            "0.888889",  # CHSH maximum on the default grid
        ):
            assert token in text, f"missing {token}"

    def test_reports_discord_within_window(self):
        import re

        text = report_headlines()
        match = re.search(r"discord at p = 0: ([0-9.]+)", text)
        assert match
        assert 0.545 <= float(match.group(1)) <= 0.565

    def test_reports_crossing_inside_bracket(self):
        import re

        text = report_headlines()
        match = re.search(
            r"crossing inside \[([0-9.]+), ([0-9.]+)\]", text
        )
        assert match
        lo, hi = float(match.group(1)), float(match.group(2))
        assert 0.05 <= lo < hi <= 0.08

    def test_crossing_scan_reaches_its_last_point(self, monkeypatch):
        scanned = []
        real_family = sweep._family

        def spy(p):
            scanned.append(p)
            return real_family(p)

        # discord never reaches concurrence, so the scan runs to its end
        monkeypatch.setattr(sweep, "_family", spy)
        monkeypatch.setitem(sweep._P_ONLY, "discord", lambda x, vals, tag: -1.0)
        with pytest.raises(InputError, match="no discord/concurrence crossing"):
            sweep.discord_concurrence_crossing()
        assert scanned == _grid(0.0, 0.292, 293)
        assert scanned[-1] == 0.292

    def test_flags_the_closed_form_inconsistency(self):
        text = report_headlines()
        assert "known inconsistency" in text
        assert "0.611111" in text and "0.777778" in text


class TestAngleParsing:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("pi", math.pi),
            ("pi/2", math.pi / 2),
            ("pi/4", math.pi / 4),
            ("2*pi", 2 * math.pi),
            ("0.5pi", math.pi / 2),
            (".5pi", math.pi / 2),
            ("-3.*pi/8", -3 * math.pi / 8),
            ("+pi/3", math.pi / 3),
            ("-pi/6", -math.pi / 6),
            ("0.75", 0.75),
            ("1e-3", 1e-3),
        ],
    )
    def test_accepted_forms(self, text, value):
        assert abs(parse_angle(text) - value) < 1e-15

    def test_gibberish_rejected(self):
        with pytest.raises(InputError):
            parse_angle("four")

    @pytest.mark.parametrize("text", [".pi", "+.pi", "-.pi", ".*pi", ".pi/4"])
    def test_bare_point_coefficient_rejected(self, text, tmp_path, capsys):
        with pytest.raises(InputError, match="cannot parse angle"):
            parse_angle(text)
        out = tmp_path / "x.csv"
        code = main(["sweep", "--theta-max", text, "--quantities", "concurrence_ad",
                     "--out", str(out)])
        assert code == 1
        assert "theta-max" in capsys.readouterr().err
        assert not out.exists()


class TestCli:
    def test_preset_writes_csv(self, tmp_path):
        out = tmp_path / "fig4.csv"
        assert main(["preset", "fig4", "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header == "p,theta,concurrence,discord,fidelity"

    def test_headlines_prints_report(self, capsys):
        assert main(["headlines"]) == 0
        assert "entanglement boundary" in capsys.readouterr().out

    def test_sweep_with_flags(self, tmp_path):
        out = tmp_path / "s.csv"
        code = main(
            [
                "sweep",
                "--p-min", "0", "--p-max", "0.2", "--p-steps", "3",
                "--theta-min", "0", "--theta-max", "pi/4", "--theta-steps", "2",
                "--quantities", "concurrence,mid",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "p,theta,concurrence,mid"
        assert len(lines) == 1 + 6

    def test_sweep_spec_file_with_flag_override(self, tmp_path):
        spec_file = tmp_path / "sweep.cfg"
        spec_file.write_text(
            "# grid\n"
            "p-min = 0\n"
            "p-max = 0.1\n"
            "p-steps = 2\n"
            "theta-min = 0\n"
            "theta-max = pi/4\n"
            "theta-steps = 2\n"
            "quantities = concurrence\n"
            "out = from_file.csv\n"
        )
        out = tmp_path / "flag_wins.csv"
        code = main(
            ["sweep", "--spec-file", str(spec_file), "--out", str(out)]
        )
        assert code == 0
        assert out.exists()
        assert not (tmp_path / "from_file.csv").exists()

    def test_spec_file_matches_flags_byte_for_byte(self, tmp_path):
        spec_file = tmp_path / "all.cfg"
        spec_file.write_text(
            "p-min = 0.05\n"
            "p_max = 0.25\n"
            "p-steps = 3\n"
            "theta-min = pi/8\n"
            "theta-max = pi/4\n"
            "theta_steps = 3\n"
            "quantities = concurrence_ad, entropy_ad\n"
            "channel-mode = product\n"
            f"out = {tmp_path / 'from_file.csv'}\n"
        )
        assert main(["sweep", "--spec-file", str(spec_file)]) == 0
        flags_out = tmp_path / "from_flags.csv"
        code = main(
            [
                "sweep",
                "--p-min", "0.05", "--p-max", "0.25", "--p-steps", "3",
                "--theta-min", "pi/8", "--theta-max", "pi/4", "--theta-steps", "3",
                "--quantities", "concurrence_ad,entropy_ad",
                "--channel-mode", "product",
                "--out", str(flags_out),
            ]
        )
        assert code == 0
        data = (tmp_path / "from_file.csv").read_bytes()
        assert data == flags_out.read_bytes()
        assert data.count(b"\n") == 1 + 9

    def test_spec_file_key_is_not_a_file_key(self, tmp_path, capsys):
        spec_file = tmp_path / "nested.cfg"
        spec_file.write_text(f"spec-file = {tmp_path / 'other.cfg'}\n")
        assert main(["sweep", "--spec-file", str(spec_file)]) == 1
        assert "unknown key 'spec_file'" in capsys.readouterr().err

    def test_theta_max_past_quarter_turn_exits_one(self, tmp_path):
        out = tmp_path / "x.csv"
        code = main(
            [
                "sweep", "--theta-max", "1.5707963267949",
                "--quantities", "concurrence_ad", "--out", str(out),
            ]
        )
        assert code == 1
        assert not out.exists()

    def test_unknown_quantity_exits_one(self, tmp_path, capsys):
        code = main(
            [
                "sweep",
                "--quantities", "bogus",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1
        assert "unknown quantities" in capsys.readouterr().err

    def test_missing_quantities_exits_one(self, tmp_path, capsys):
        assert main(["sweep", "--out", str(tmp_path / "x.csv")]) == 1
        assert "no quantities requested" in capsys.readouterr().err

    def test_empty_quantity_list_exits_one(self, tmp_path, capsys):
        code = main(["sweep", "--quantities", ",", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "no quantities requested" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("mode", CHANNEL_MODES)
    @pytest.mark.parametrize("place", ["kernel", "p_only", "fidelity_ad_closed_form"])
    def test_rejected_cell_exits_one_and_writes_no_csv(
        self, monkeypatch, tmp_path, capsys, place, mode
    ):
        # one InputError at the cell (0.1, 0) of a 3 x 3 grid, in the
        # damped state, a p-only column or the closed form's per-cell part
        message = f"injected rejection in {place}"

        def reject_at_cell(p, theta):
            if (p, theta) == (0.1, 0.0):
                raise InputError(message)

        if place == "kernel":
            def hook(x, theta):
                # the damped state's cell, from the family's five numbers
                if x == _xcore._family_x(0.1):
                    reject_at_cell(0.1, theta)

            _hook_damping(monkeypatch, hook)
        elif place == "p_only":
            real = _P_ONLY["chsh"]

            def chsh(x, vals, tag):
                # a p-only column is evaluated at the first theta of each p
                if x == _xcore._family_x(0.1):
                    reject_at_cell(0.1, 0.0)
                return real(x, vals, tag)

            monkeypatch.setitem(_P_ONLY, "chsh", chsh)
        else:
            # the row's part, keyed on the factors of p = 0.1 and rejecting
            # at theta = 0, whose 1 - sin^2 theta is 1.0
            real = sweep._closed_form_fidelity
            at_p = _xcore._closed_form_fidelity_p(0.1)

            def closed_form(pf, one_gs):
                if pf == at_p:
                    for one_g in one_gs:
                        if one_g == 1.0:
                            reject_at_cell(0.1, 0.0)
                return real(pf, one_gs)

            monkeypatch.setattr(sweep, "_closed_form_fidelity", closed_form)
        spec = SweepSpec(
            p_min=0.0, p_max=0.2, p_steps=3,
            theta_min=0.0, theta_max=math.pi / 4, theta_steps=3,
            quantities=tuple(QUANTITIES), channel_mode=mode,
        )
        with pytest.raises(InputError, match=message):
            run_sweep(spec)
        out = tmp_path / "x.csv"
        code = main([
            "sweep", "--p-min", "0", "--p-max", "0.2", "--p-steps", "3",
            "--theta-min", "0", "--theta-max", "pi/4", "--theta-steps", "3",
            "--quantities", ",".join(QUANTITIES), "--channel-mode", mode,
            "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("earlier", [None, b"p,theta\nan earlier file\n"])
    def test_numerical_error_at_last_cell_leaves_no_csv(
        self, monkeypatch, tmp_path, capsys, earlier
    ):
        # the rows before it were streamed to the temporary file; the error
        # at the last cell removes that file, writes nothing at --out and
        # leaves an earlier file there as it was
        out = tmp_path / "x.csv"
        tmp = tmp_path / f".x.csv.{os.getpid()}.tmp"
        if earlier is not None:
            out.write_bytes(earlier)
        streamed = []

        def fail_last(x, theta):
            if x == _xcore._family_x(0.2) and theta == math.pi / 4:
                streamed.append(tmp.exists())
                raise NumericalError("injected failure at the last cell")

        _hook_damping(monkeypatch, fail_last)
        code = main([
            "sweep", "--p-min", "0", "--p-max", "0.2", "--p-steps", "3",
            "--theta-min", "0", "--theta-max", "pi/4", "--theta-steps", "3",
            "--quantities", ",".join(QUANTITIES), "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr() == ("", "error: injected failure at the last cell\n")
        assert streamed == [True]
        assert not tmp.exists()
        assert [path.name for path in tmp_path.iterdir()] == (
            [] if earlier is None else ["x.csv"]
        )
        if earlier is not None:
            assert out.read_bytes() == earlier

    @pytest.mark.parametrize("axis, flags", [
        ("p", ["--p-min", "0", "--p-max", "0.2", "--p-steps", "1", "--theta-steps", "1"]),
        ("theta", ["--p-steps", "2", "--theta-steps", "1"]),
    ])
    def test_one_point_axis_with_two_ends_exits_one(self, tmp_path, capsys, axis, flags):
        # one step would drop the max without a word; it is rejected instead
        out = tmp_path / "x.csv"
        code = main(["sweep", *flags, "--quantities", "concurrence", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {axis}_steps is 1 but {axis}_min 0.0 differs from ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("earlier", [None, b"p,theta\nan earlier file\n"])
    def test_write_failure_after_header_leaves_no_partial_csv(
        self, monkeypatch, tmp_path, capsys, earlier
    ):
        # an OSError on the second write, after the header: exit 2, no CSV
        # at --out, an earlier file there unchanged, no temporary file left
        real_open = open

        class FailAfterHeader:
            def __init__(self, *args, **kwargs):
                self.fh = real_open(*args, **kwargs)
                self.writes = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.writes += 1
                if self.writes > 1:
                    raise OSError(28, "No space left on device")
                return self.fh.write(text)

        out = tmp_path / "fig4.csv"
        if earlier is not None:
            out.write_bytes(earlier)
        monkeypatch.setattr(sweep, "open", FailAfterHeader, raising=False)
        assert main(["preset", "fig4", "--out", str(out)]) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert [path.name for path in tmp_path.iterdir()] == (
            [] if earlier is None else ["fig4.csv"]
        )
        if earlier is not None:
            assert out.read_bytes() == earlier
        monkeypatch.undo()
        assert main(["preset", "fig4", "--out", str(out)]) == 0
        assert [path.name for path in tmp_path.iterdir()] == ["fig4.csv"]
        assert out.read_bytes().startswith(b"p,theta,concurrence,discord,fidelity\n0,0,")

    @pytest.mark.parametrize("target", ["dir", "dir/", "link"])
    def test_directory_output_fails_before_the_sweep(self, monkeypatch, tmp_path, capsys,
                                                      target):
        # a directory at --out, named as is, with a slash or through a link,
        # is open()'s I/O error, exit 2, before the engine evaluates a row
        (tmp_path / "dir").mkdir()
        (tmp_path / "link").symlink_to(tmp_path / "dir")
        out = str(tmp_path / target) + ("/" if target.endswith("/") else "")
        with pytest.raises(IsADirectoryError) as opened:
            open(out, "w")
        walks = _spy(monkeypatch, sweep, "_walk")
        assert main(["preset", "fig3", "--out", out]) == 2
        assert walks == []
        assert capsys.readouterr() == (
            "", f"I/O error: cannot write CSV to {out!r}: {opened.value}\n")
        assert sorted(path.name for path in tmp_path.rglob("*")) == ["dir", "link"]

    def test_unwritable_output_exits_two(self, tmp_path):
        code = main(
            ["preset", "fig4", "--out", str(tmp_path / "no_dir" / "x.csv")]
        )
        assert code == 2

    def test_bad_flag_exits_one(self):
        assert main(["sweep", "--no-such-flag"]) == 1

    def test_unknown_channel_mode_gives_one_message(self, tmp_path, capsys):
        # a flag and a spec-file value both reach SweepSpec's check
        spec_file = tmp_path / "mode.cfg"
        spec_file.write_text("channel-mode = Correlated\n")
        out = tmp_path / "x.csv"
        for args in (["--channel-mode", "Correlated"], ["--spec-file", str(spec_file)]):
            code = main(["sweep", *args, "--quantities", "concurrence", "--out", str(out)])
            assert code == 1, args
            assert capsys.readouterr().err == (
                "error: unknown channel mode 'Correlated'; "
                "choose from: closed_form, correlated, product\n"
            ), args
            assert not out.exists()

    def test_unknown_preset_exits_one(self, tmp_path, capsys):
        with pytest.raises(InputError) as want:
            preset_spec("fig9")
        assert main(["preset", "fig9", "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == f"error: {want.value}\n"
        assert str(want.value) == "unknown preset 'fig9'; choose from: fig1, fig2, fig3, fig4"
        assert not (tmp_path / "x.csv").exists()

    def test_unknown_spec_file_key_exits_one(self, tmp_path):
        spec_file = tmp_path / "bad.cfg"
        spec_file.write_text("volume = 11\n")
        assert main(["sweep", "--spec-file", str(spec_file)]) == 1

    def test_non_utf8_spec_file_exits_one(self, tmp_path, capsys):
        spec_file = tmp_path / "latin.cfg"
        spec_file.write_bytes(b"p-steps = 3\n# \xff\n")
        assert main(["sweep", "--spec-file", str(spec_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {spec_file}: not UTF-8 text")

    def test_module_entrypoint_smoke(self, tmp_path):
        # the child imports the same nmems as this process, installed or not
        src_dir = os.path.dirname(os.path.dirname(nmems.__file__))
        path = os.pathsep.join(filter(None, (src_dir, os.environ.get("PYTHONPATH"))))
        result = subprocess.run(
            [sys.executable, "-m", "nmems", "preset", "fig4", "--out",
             str(tmp_path / "m.csv")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0
        assert (tmp_path / "m.csv").exists()


class TestQuantityRegistry:
    def test_every_quantity_evaluates_at_a_benign_point(self):
        spec = SweepSpec(
            p_min=0.1, p_max=0.1, p_steps=1,
            theta_min=0.3, theta_max=0.3, theta_steps=1,
            quantities=tuple(QUANTITIES),
            channel_mode="product",
        )
        rows = run_sweep(spec)
        assert len(rows) == 1
        for name, value in rows[0].values.items():
            assert math.isfinite(value), name

    def test_p_only_tag_matches_what_each_column_reads(self):
        # tagged columns agree at two thetas in every mode; untagged ones
        # move with theta in at least one mode
        assert set(_P_ONLY) <= set(QUANTITIES)
        p = 0.1
        for name in QUANTITIES:
            pairs = [
                (_per_point(name, p, 0.3, mode), _per_point(name, p, 0.7, mode))
                for mode in CHANNEL_MODES
            ]
            if name in _P_ONLY:
                assert len(set(pairs)) == 1 and pairs[0][0] == pairs[0][1], name
            else:
                assert any(a != b for a, b in pairs), name

    @pytest.mark.parametrize("mode", CHANNEL_MODES)
    def test_fidelity_ad_is_fidelity_at_zero_damping(self, mode):
        spec = SweepSpec(
            p_min=0.0, p_max=1.0, p_steps=11,
            theta_min=0.0, theta_max=0.0, theta_steps=1,
            quantities=("fidelity", "fidelity_ad"), channel_mode=mode,
        )
        rows = run_sweep(spec)
        assert [row.p for row in rows] == [k / 10 for k in range(11)]
        for row in rows:
            assert row.values["fidelity_ad"] == row.values["fidelity"], row.p

    def test_fidelity_ad_uses_the_raw_correlation_matrix(self):
        # the sub-normalized damped state is not rescaled: its raw T misses
        # the usefulness bound, the renormalized one would pass it
        spec = SweepSpec(
            p_min=0.1, p_max=0.1, p_steps=1,
            theta_min=0.6, theta_max=0.6, theta_steps=1,
            quantities=("fidelity_ad",),
        )
        assert run_sweep(spec)[0].values["fidelity_ad"] == 2.0 / 3.0
        damped = nmems_ad(0.1, 0.6)
        assert not damped.is_unit()
        rescaled = fidelity_from_correlation(correlation_matrix(damped.renormalized()))
        assert rescaled.useful

    def test_witness_quantities_match_formulas(self):
        spec = SweepSpec(
            p_min=0.2, p_max=0.2, p_steps=1,
            theta_min=0.0, theta_max=0.0, theta_steps=1,
            quantities=("witness_generic", "witness_w1", "witness_stabilizer"),
        )
        row = run_sweep(spec)[0]
        assert abs(row.values["witness_generic"] - (1 - 0.2) / 3) < 1e-12
        assert abs(row.values["witness_w1"] - (7 * 0.2 - 2) / 18) < 1e-12
        assert abs(row.values["witness_stabilizer"] - (4 * 0.2 - 1) / 3) < 1e-12

    @pytest.mark.parametrize("mode", CHANNEL_MODES)
    def test_damped_state_checks_p_first_in_every_mode(self, mode):
        # every registry entry, whether or not its column reads theta and
        # the mode, and the scalar core check p, then theta against
        # [0, pi/2], then the mode, with the same messages: p and theta
        # both out of range report p; a theta outside [0, pi/2] is
        # rejected in every mode, as the closed form rejects it; a mode
        # outside CHANNEL_MODES gets SweepSpec's message and never stands
        # in for another mode
        p_message = "p must lie in [0, 1], got 2.0"
        cases = [(2.0, math.nan, mode, p_message)] + [
            (0.1, theta, mode, f"theta must lie in [0, 1.5708], got {theta!r}")
            for theta in (-0.5, 2.0, 7.0, math.nan)
        ] + [
            # ints beyond the float range, shown as the infinities float()
            # makes of their text
            (10**400, 0.3, mode, "p must lie in [0, 1], got inf"),
            (0.1, -10**400, mode, "theta must lie in [0, 1.5708], got -inf"),
        ]
        for bad in ("sideways", "Correlated", "correlated ", None):
            with pytest.raises(InputError) as spec_error:
                _tiny_spec(channel_mode=bad)
            cases += [
                (0.1, 0.3, bad, str(spec_error.value)),
                (2.0, 0.3, bad, p_message),
                (0.1, 7.0, bad, "theta must lie in [0, 1.5708], got 7.0"),
            ]
        for p, theta, mode_, message in cases:
            with pytest.raises(InputError) as want:
                _xcore._mode_damped_x(mode_, p, theta)
            assert str(want.value) == message
            for name in QUANTITY_NAMES:
                with pytest.raises(InputError) as got:
                    QUANTITIES[name](p, theta, mode_)
                assert str(got.value) == message, (name, p, theta, mode_)
