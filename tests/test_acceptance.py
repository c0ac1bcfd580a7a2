"""Acceptance suite: the library's headline numeric claims, each pinned at a
fixed tolerance.

Each test prints one ``[criterion NN] PASS/FAIL`` line (visible with
``pytest -s``; on failure pytest shows it regardless).

Criterion 11 note: ``mid_adc`` is defined on the raw sub-normalized
spectrum of the damped image, so its maximum on the fig3 grid is not at the
(p = 0, theta = pi/4) corner.  At p = 0 the damped spectrum is
{1/3, x, 0, 0} with x = (2/3) cos^2 theta, and the undamped one is
{1/3, 2/3}, so

    mid_adc(0, theta) = -(1/3) log2(1/3) - x log2 x - h(1/3).

Its derivative in x, -(log2 x + 1/ln 2), vanishes at x = 1/e, which gives
theta* = arcsin sqrt(1 - 3/(2e)) ~ 0.73349 < pi/4.  At theta = pi/4,
x = 1/3 < 1/e, so the disturbance still falls as theta grows there: the
corner is not even a local maximum.  The criterion therefore expects the grid
maximum at p = 0 and at the grid angle nearest theta*, with the corner value
strictly below it.  Only the renormalized damped image
(``DensityMatrix.renormalized()``) peaks at the corner;
``TestMidAdc::test_normalized_variant_peaks_at_the_corner`` in
``test_measures.py`` covers that variant.
"""

import math
import re
from contextlib import contextmanager

import numpy as np
import pytest

from nmems.channels import adc, apply_correlated_pair, gadc
from nmems.cli import main
from nmems.linalg import hermitian_eigen
from nmems.measures import (
    chsh_criterion,
    concurrence_wootters,
    concurrence_x,
    discord_x,
    fidelity_ad_closed_form,
    mid_adc,
    teleportation_fidelity,
)
from nmems.states import DensityMatrix, nmems, nmems_ad, projector, x_params_of
from nmems.sweep import (
    entanglement_boundary,
    preset_spec,
    report_headlines,
    run_sweep,
    witness_zero_crossing,
)
from nmems.witnesses import evaluate, witness_generic, witness_stabilizer, witness_w1

import oracles

P_STAR = 7.0 - math.sqrt(45.0)


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL  {desc}")
        raise
    print(f"[criterion {num:02d}] PASS  {desc}")


def test_criterion_01_witness_traces():
    with criterion(1, "witness expectations match their closed forms at 1e-12"):
        generic = witness_generic(2)
        w1 = witness_w1()
        stab = witness_stabilizer()
        for p in np.linspace(0.0, 1.0, 1000):
            state = nmems(float(p))
            assert abs(
                evaluate(generic, state).expectation - (1.0 - p) / 3.0
            ) <= 1e-12
            assert abs(
                evaluate(w1, state).expectation - (7.0 * p - 2.0) / 18.0
            ) <= 1e-12
            assert abs(
                evaluate(stab, state).expectation - (4.0 * p - 1.0) / 3.0
            ) <= 1e-12


def test_criterion_02_sign_boundaries():
    with criterion(2, "witness crossings at 2/7 and 1/4; entanglement edge at 7-sqrt(45)"):
        assert witness_zero_crossing("w1") == 2.0 / 7.0
        assert witness_zero_crossing("stabilizer") == 0.25
        assert entanglement_boundary() == 4.0 / (7.0 + 3.0 * math.sqrt(5.0))
        assert abs(entanglement_boundary() - P_STAR) <= 1e-12


def test_criterion_03_concurrence_anchors():
    with criterion(3, "concurrence anchors 2/3, 1/3, and exact 0"):
        assert abs(concurrence_x(x_params_of(nmems(0.0))) - 2.0 / 3.0) <= 1e-12
        assert abs(
            concurrence_x(x_params_of(nmems_ad(0.0, math.pi / 4))) - 1.0 / 3.0
        ) <= 1e-12
        assert concurrence_x(x_params_of(nmems_ad(0.0, math.pi / 2))) == 0.0


def test_criterion_04_damping_scaling_law():
    with criterion(4, "damped concurrence scales by (1-gamma) at 1e-12 on a 100x46 grid"):
        thetas = np.linspace(0.0, math.pi / 2, 46)
        for p in np.linspace(0.0, 1.0, 100):
            base = concurrence_x(x_params_of(nmems(float(p))))
            for theta in thetas:
                gamma = math.sin(theta) ** 2
                damped = concurrence_x(
                    x_params_of(nmems_ad(float(p), float(theta)))
                )
                assert abs(damped - (1.0 - gamma) * base) <= 1e-12


def test_criterion_05_concurrence_oracle_equivalence(rng):
    with criterion(5, "spin-flip and X-formula concurrence agree to 1e-9"):
        for _ in range(1000):
            state = DensityMatrix.from_matrix(oracles.random_x_state(rng))
            assert abs(
                concurrence_wootters(state) - concurrence_x(x_params_of(state))
            ) <= 1e-9
        for p in np.linspace(0.0, 0.292, 293):
            state = nmems(float(p))
            assert abs(
                concurrence_wootters(state) - concurrence_x(x_params_of(state))
            ) <= 1e-9


def test_criterion_06_fidelity_formula():
    with criterion(6, "fidelity equals (7-4p)/9 below the edge; useless beyond it"):
        for p in np.arange(0.0, 0.25, 1e-3):
            got = teleportation_fidelity(nmems(float(p)))
            assert got.useful
            assert abs(got.fidelity - (7.0 - 4.0 * p) / 9.0) <= 1e-10
        at_zero = teleportation_fidelity(nmems(0.0)).fidelity
        assert abs(at_zero - 7.0 / 9.0) <= 1e-10
        assert f"{at_zero:.4f}" == "0.7778"
        for p in np.linspace(0.25, 1.0, 76):
            assert not teleportation_fidelity(nmems(float(p))).useful


def test_criterion_07_chsh_criterion():
    with criterion(7, "no CHSH violation anywhere; M <= 8/9 on the figure grid"):
        for p in np.linspace(0.0, 0.292, 293):
            assert chsh_criterion(nmems(float(p))).m_value <= 8.0 / 9.0 + 1e-12
        for p in np.linspace(0.0, 1.0, 1001):
            assert not chsh_criterion(nmems(float(p))).violates
        bell = np.zeros((4, 1), dtype=complex)
        bell[1, 0] = bell[2, 0] = 1.0 / math.sqrt(2.0)
        m_bell = chsh_criterion(DensityMatrix.from_matrix(projector(bell))).m_value
        assert abs(m_bell - 2.0) <= 1e-10


def test_criterion_08_discord():
    with criterion(8, "discord window at p=0, crossing bracket, monotone decay"):
        assert 0.545 <= discord_x(nmems(0.0)).discord <= 0.565
        grid = np.linspace(0.0, 0.291, 292)
        discords = [discord_x(nmems(float(p))).discord for p in grid]
        concurrences = [concurrence_x(x_params_of(nmems(float(p)))) for p in grid]
        assert all(b < a for a, b in zip(discords, discords[1:]))
        assert all(b < a for a, b in zip(concurrences, concurrences[1:]))
        gaps = [d - c for d, c in zip(discords, concurrences)]
        crossings = [
            (grid[i], grid[i + 1])
            for i in range(len(gaps) - 1)
            if gaps[i] < 0.0 <= gaps[i + 1]
        ]
        assert len(crossings) == 1
        lo, hi = crossings[0]
        assert 0.05 <= lo < hi <= 0.08


def test_criterion_09_channel_audits(rng):
    with criterion(9, "Kraus completeness at 1e-10; correlated-map gap is gamma^2 p/2"):
        eye = np.eye(2)
        for _ in range(500):
            gamma = float(rng.random())
            lam = float(rng.random())
            for ch in (adc(gamma), gadc(gamma, lam)):
                total = sum(k.conj().T @ k for k in ch.operators)
                assert np.max(np.abs(total - eye)) <= 1e-10
                assert ch.trace_preserving
        for p in np.linspace(0.0, 1.0, 21):
            for theta in np.linspace(0.0, math.pi / 2, 21):
                gamma = math.sin(theta) ** 2
                got = apply_correlated_pair(adc(gamma), nmems(float(p)))
                diff = got.matrix - nmems_ad(float(p), float(theta)).matrix
                expected = np.zeros((4, 4))
                expected[0, 0] = gamma * gamma * p / 2.0
                assert np.max(np.abs(diff - expected)) <= 1e-12


def test_criterion_10_closed_form_fidelity_inconsistency_recorded():
    with criterion(
        10, "closed-form damped fidelity is 11/18 at the origin and is reported "
        "(Horodecki's (1 + N/3)/2 on the spin-flip values, sum 2/3, not on T's, 5/3)",
    ):
        assert abs(fidelity_ad_closed_form(0.0, 0.0) - 11.0 / 18.0) <= 1e-12
        # the undamped criterion gives a different number at the same state,
        # and the headline report must surface the conflict
        assert abs(
            teleportation_fidelity(nmems(0.0)).fidelity
            - fidelity_ad_closed_form(0.0, 0.0)
        ) > 0.16
        text = report_headlines()
        assert "known inconsistency" in text
        assert "0.611111" in text
        assert "0.777778" in text


def test_criterion_11_measurement_induced_disturbance():
    with criterion(
        11, "disturbance zero at theta=0; grid maximum at p=0, theta nearest "
        "arcsin sqrt(1 - 3/(2e)), above the (0, pi/4) corner",
    ):
        for p in np.linspace(0.0, 1.0, 101):
            assert mid_adc(float(p), 0.0) == 0.0
        ps = np.linspace(0.0, 0.292, 293)
        thetas = np.linspace(0.0, math.pi / 4, 46)
        best_value = -1.0
        best_point = None
        for p in ps:
            for theta in thetas:
                value = mid_adc(float(p), float(theta))
                if value > best_value:
                    best_value = value
                    best_point = (float(p), float(theta))
        # p = 0 damped spectrum {1/3, x, 0, 0}, x = (2/3) cos^2 theta: the
        # -x log2 x term is stationary at x = 1/e
        theta_star = math.asin(math.sqrt(1.0 - 3.0 / (2.0 * math.e)))
        expected = (0.0, float(thetas[np.argmin(np.abs(thetas - theta_star))]))
        assert best_point == expected, (
            f"grid maximum {best_value:.9f} sits at (p, theta) = "
            f"({best_point[0]:.6f}, {best_point[1]:.6f}), expected "
            f"({expected[0]:.6f}, {expected[1]:.6f}), the grid point nearest "
            f"theta* = {theta_star:.6f}"
        )
        corner_value = mid_adc(0.0, float(thetas[-1]))
        assert corner_value < best_value, (
            f"corner value {corner_value:.9f} is not below the grid maximum "
            f"{best_value:.9f}"
        )


def _parse_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        rows.append([float(cell) for cell in line.split(",")])
    return header, rows


def _roundtrip_tol(value):
    # 12 significant digits quantize at half an ulp of the leading decimal
    # digit; that is 5e-13 or better for |v| <= 1 (inside the stated 1e-12)
    # but unavoidably ~5e-12 for values such as theta = pi/2.  Compare at
    # the format's information limit, never looser than the format allows.
    if value == 0.0:
        return 0.0
    return max(1e-12, 5.0 * 10.0 ** (math.floor(math.log10(abs(value))) - 11))


def test_criterion_12_cli_contract(tmp_path, capsys):
    with criterion(12, "presets are byte-deterministic, round-trip, and headlined"):
        for name in ("fig1", "fig2", "fig3", "fig4"):
            spec = preset_spec(name)
            rows = run_sweep(spec)
            first = tmp_path / f"{name}_a.csv"
            second = tmp_path / f"{name}_b.csv"
            from nmems.sweep import emit_csv

            emit_csv(rows, str(first))
            assert main(["preset", name, "--out", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes()

            header, parsed = _parse_csv(first)
            assert header == ["p", "theta"] + list(spec.quantities)
            assert len(parsed) == len(rows)
            for cells, row in zip(parsed, rows):
                originals = [row.p, row.theta] + [
                    row.values[q] for q in spec.quantities
                ]
                for got, want in zip(cells, originals):
                    assert abs(got - want) <= _roundtrip_tol(want)

        text = report_headlines()
        for token in ("0.291796", "0.285714", "0.250000", "0.777778", "0.888889"):
            assert token in text
        match = re.search(r"discord at p = 0: ([0-9.]+)", text)
        assert match and 0.545 <= float(match.group(1)) <= 0.565
        match = re.search(r"crossing inside \[([0-9.]+), ([0-9.]+)\]", text)
        assert match
        lo, hi = float(match.group(1)), float(match.group(2))
        assert 0.05 <= lo < hi <= 0.08
