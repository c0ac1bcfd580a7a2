import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nmems
from nmems import InputError
from nmems.cli import main, parse_angle
from nmems.measures import concurrence_x, fidelity_ad_closed_form, mid_adc
from nmems.states import nmems_ad, x_params_of
from nmems.sweep import (
    CHANNEL_MODES,
    NA_TOKEN,
    PRESETS,
    QUANTITIES,
    SweepRow,
    SweepSpec,
    emit_csv,
    preset_spec,
    report_headlines,
    _grid,
    _Point,
    run_sweep,
)


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
        with pytest.raises(InputError):
            _tiny_spec(channel_mode="sideways")

    def test_zero_steps_rejected(self):
        with pytest.raises(InputError):
            _tiny_spec(p_steps=0)

    def test_theta_bound_is_exactly_quarter_turn(self):
        # the same pi/2 bound as nmems_ad: no slack that would turn the
        # damped columns into NA
        _tiny_spec(theta_max=math.pi / 2)
        with pytest.raises(InputError):
            _tiny_spec(theta_max=math.nextafter(math.pi / 2, 2.0))


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
        assert NA_TOKEN not in out.read_text()


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

    def test_undefined_cells_are_na(self):
        # the spin-flip concurrence rejects sub-normalized damped states, so
        # every theta > 0 cell is NA in the closed-form channel mode
        spec = _tiny_spec(quantities=("concurrence_ad_wootters",))
        rows = run_sweep(spec)
        for row in rows:
            value = row.values["concurrence_ad_wootters"]
            if row.theta == 0.0:
                assert value is not None
            else:
                assert value is None

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

    @settings(max_examples=200, deadline=None)
    @given(
        p=st.floats(0.0, 1.0),
        theta=st.floats(0.0, math.pi / 2),
        mode=st.sampled_from(CHANNEL_MODES),
    )
    def test_damped_state_is_x_form_with_trace_at_most_one(self, p, theta, mode):
        damped = _Point(p, theta, mode, nmems.nmems(p)).damped
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

    def test_na_token(self, tmp_path):
        row = SweepRow(p=0.1, theta=0.2, values={"q": None})
        path = tmp_path / "na.csv"
        emit_csv([row], str(path))
        assert path.read_text().splitlines()[1] == "0.1,0.2,NA"

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

    def test_mismatched_columns_rejected(self, tmp_path):
        rows = [
            SweepRow(p=0.0, theta=0.0, values={"a": 1.0}),
            SweepRow(p=0.0, theta=0.1, values={"b": 1.0}),
        ]
        with pytest.raises(InputError):
            emit_csv(rows, str(tmp_path / "bad.csv"))

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
        # the product map keeps unit trace, so every damped cell is defined
        assert b"NA" not in data and data.count(b"\n") == 1 + 9

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

    def test_missing_quantities_exits_one(self, tmp_path):
        assert main(["sweep", "--out", str(tmp_path / "x.csv")]) == 1

    def test_unwritable_output_exits_two(self, tmp_path):
        code = main(
            ["preset", "fig4", "--out", str(tmp_path / "no_dir" / "x.csv")]
        )
        assert code == 2

    def test_bad_flag_exits_one(self):
        assert main(["sweep", "--no-such-flag"]) == 1

    def test_unknown_spec_file_key_exits_one(self, tmp_path):
        spec_file = tmp_path / "bad.cfg"
        spec_file.write_text("volume = 11\n")
        assert main(["sweep", "--spec-file", str(spec_file)]) == 1

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
            assert value is not None, f"{name} unexpectedly NA"
            assert math.isfinite(value)

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
