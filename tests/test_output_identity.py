"""Byte-identity gate: the sha256 prefixes of the figure presets, the
headline report, the 60 x 20 all-quantity and numpy-free sweeps in every
channel mode and whole-domain sweeps of the damped columns, plus
full-precision digests of the eigensolver, the family's states, the
spin-flip concurrence, the closed-form fidelity and the scalar core's
spectra of the damped states.

A change to any evaluator that moves a single printed digit changes one of
the CSV digests.  Those see only 12 significant digits, so the raw-byte
digests below also pin the last bit of every eigenvalue, eigenvector,
stored matrix, trace and spin-flip concurrence.  A deliberate change of output must update the
digest here and say which cells moved and why.
"""

import hashlib
import math
import pathlib
import re
import struct

import numpy as np
import pytest

from nmems import InputError, _xcore, linalg
from nmems._xcore import UNIT, _mode_damped_x, _x_spectrum, fidelity_ad_closed_form
from nmems.channels import adc, apply_correlated_pair, apply_product_pair
from nmems.measures import concurrence_wootters
from nmems.states import DensityMatrix, nmems, nmems_ad
from nmems.sweep import (
    CHANNEL_MODES,
    PRESETS,
    QUANTITIES,
    QUANTITY_NAMES,
    SweepSpec,
    _grid,
    emit_csv,
    report_headlines,
    run_sweep,
    stream_csv,
)

import oracles

# fig2 moved (from 8b93956310733932) when fidelity_ad_closed_form began to
# return its factored form in place of the long radical form: four cells
# went to the value a 50-digit reference gives at the float grid point,
# (p, theta) = (0.038, 1.53588974176) to 0.500162803203, (0.068, same) to
# 0.500170077791, (0.1, same) to 0.50017550513 and (0.209, 1.46607657168)
# to 0.501674669846
PRESET_SHA256 = {
    "fig1": "ff22b210e035cb22",
    "fig2": "6517fb5c07ccd22c",
    "fig3": "772fdc8e29900fcb",
    "fig4": "bebc25d454b72ed1",
}
HEADLINES_SHA256 = "a89c0a91e91c36c0"
# the product digest moved when the spin-flip concurrence began to take K's
# singular values in closed form: two concurrence_ad_wootters cells went to
# their correctly rounded value (0.000802529963445 and 0.013276555087).
# closed_form and correlated moved (from c94eb46d03930cca and
# 944455e62ccb0ffa) when the spin-flip concurrence of a sub-normalized
# damped state became its raw value: each of the 1,140 concurrence_ad_wootters
# cells with theta > 0 went from NA to the 12 digits concurrence_ad prints
SWEEP_SHA256 = {
    "closed_form": "cf5484186e2b59c6",
    "correlated": "ccbe135b5aac8b8c",
    "product": "4f6f7798801cc9f7",
}


def _csv_digest(spec: SweepSpec, path) -> str:
    # the bytes the CLI writes: stream_csv, as ``nmems sweep`` and
    # ``nmems preset`` call it
    stream_csv(spec, str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(PRESET_SHA256))
def test_preset_bytes(name, tmp_path):
    assert _csv_digest(PRESETS[name], tmp_path / f"{name}.csv") == PRESET_SHA256[name]


def test_headlines_bytes():
    digest = hashlib.sha256(report_headlines().encode("utf-8")).hexdigest()[:16]
    assert digest == HEADLINES_SHA256


def _benchmark_sweep(quantities: tuple, mode: str) -> SweepSpec:
    # nmems sweep --p-max 0.292 --p-steps 60 --theta-max pi/4 --theta-steps 20
    #   --quantities <quantities> --channel-mode <mode>
    return SweepSpec(
        p_min=0.0, p_max=0.292, p_steps=60,
        theta_min=0.0, theta_max=math.pi / 4, theta_steps=20,
        quantities=quantities, channel_mode=mode,
    )


@pytest.mark.parametrize("mode", CHANNEL_MODES)
def test_all_quantity_sweep_bytes(mode, tmp_path):
    # every QUANTITIES id, in registry order
    spec = _benchmark_sweep(tuple(QUANTITIES), mode)
    assert _csv_digest(spec, tmp_path / f"sweep_{mode}.csv") == SWEEP_SHA256[mode]


@pytest.mark.parametrize("mode", CHANNEL_MODES)
def test_materialized_sweep_writes_the_streamed_bytes(mode, tmp_path):
    # run_sweep and emit_csv, the second path to the same CSV, write the
    # bytes stream_csv writes (criterion 12 checks the presets)
    spec = _benchmark_sweep(tuple(QUANTITIES), mode)
    emit_csv(run_sweep(spec), str(tmp_path / "rows.csv"))
    stream_csv(spec, str(tmp_path / "stream.csv"))
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "stream.csv").read_bytes()


# the same sweeps of the thirteen columns other than the two spin-flip
# concurrences (the ones that ran without numpy before those did), which a
# numpy-free install reproduces
SCALAR_QUANTITIES = tuple(q for q in QUANTITY_NAMES if not q.endswith("_wootters"))
SCALAR_SWEEP_SHA256 = {
    "closed_form": "006138cab84e7c98",
    "correlated": "cd5de1f0633d9339",
    "product": "b60fb0fb392bc78e",
}


@pytest.mark.parametrize("mode", CHANNEL_MODES)
def test_scalar_sweep_bytes(mode, tmp_path):
    spec = _benchmark_sweep(SCALAR_QUANTITIES, mode)
    assert _csv_digest(spec, tmp_path / f"scalar_{mode}.csv") == SCALAR_SWEEP_SHA256[mode]


_WORKFLOW = pathlib.Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"


def test_ci_workflow_pins_the_tables():
    # the CI console-script steps write the prefixes above out again, as
    # "for pair in name:prefix ...; do" loops and a headline grep "^prefix";
    # each loop must pin one table whole, and each "q=" list must spell the
    # columns of a table, so a re-pin on one side only fails here
    text = _WORKFLOW.read_text(encoding="utf-8").replace("\\\n", " ")
    tables = {
        QUANTITY_NAMES: SWEEP_SHA256,
        SCALAR_QUANTITIES: SCALAR_SWEEP_SHA256,
    }
    q_lists = []
    pinned = []
    for line in text.splitlines():
        q = re.fullmatch(r"\s*q=(\$q,)?([\w,]+)", line)
        if q:
            names = q.group(2).split(",")
            if q.group(1):
                q_lists[-1] += names
            else:
                q_lists.append(names)
        loop = re.search(r"for pair in ([^;]*); do", line)
        if loop:
            pairs = re.findall(r"(\w+):([0-9a-f]+)", loop.group(1))
            if all(name.startswith("fig") for name, _ in pairs):
                table = PRESET_SHA256
            else:
                table = tables[tuple(q_lists[-1])]
            assert len(dict(pairs)) == len(pairs), pairs
            assert dict(pairs) == table
            pinned.append(table)
    assert q_lists and all(tuple(q) in tables for q in q_lists), q_lists
    headlines = re.findall(r'grep "\^([0-9a-f]+)"', text)
    assert headlines and set(headlines) == {HEADLINES_SHA256}
    for table in (PRESET_SHA256, SWEEP_SHA256, SCALAR_SWEEP_SHA256):
        assert table in pinned


# closed_form sweep of three damped columns (sweep._DAMPED) over the whole
# domain: p = 1 and theta = pi/2 (coherence 0, no rotation) included
KERNEL_SWEEP_SHA256 = "6b22153af396a0de"


def test_kernel_sweep_bytes(tmp_path):
    # nmems sweep --p-max 1 --p-steps 41 --theta-max pi/2 --theta-steps 21
    #   --quantities concurrence_ad,entropy_ad,mid
    spec = SweepSpec(
        p_min=0.0, p_max=1.0, p_steps=41,
        theta_min=0.0, theta_max=math.pi / 2, theta_steps=21,
        quantities=("concurrence_ad", "entropy_ad", "mid"),
    )
    assert _csv_digest(spec, tmp_path / "kernel.csv") == KERNEL_SWEEP_SHA256


# the five damped columns (sweep._DAMPED, computed from five numbers), over
# the whole domain in every channel mode.  closed_form and correlated were
# taken while the Kraus modes, fidelity_ad and concurrence_ad_wootters still
# ran on dense states.  The product digest moved (from aea401bafb94ef74) when
# the spin-flip concurrence began to read K's singular values sqrt(a e),
# sqrt(a e), sqrt(b d) +- |c| off the five numbers: one cell,
# concurrence_ad_wootters at p = 0.2, theta = 0.863937979737, went from
# 0.000416115626612 to its correctly rounded value 0.000416115626613.
# closed_form and correlated moved (from 4ff9292d802e5867 and
# 615aaf8e058f113e) when concurrence_ad_wootters of a sub-normalized damped
# state became its raw value: 820 and 819 cells went from NA to the 12
# digits concurrence_ad prints.  The product digest moved again (from
# 1709227640ed3229) when an entropy stopped going below zero: entropy_ad at
# (p, theta) = (0.075, pi/2) and (0.45, pi/2), the image |00><00| with
# a = 1 + 2^-52, went from -3.20342650381e-16 to 0
KERNEL_MODE_SWEEP_SHA256 = {
    "closed_form": "151ff327177491f2",
    "correlated": "ce977e94bbd0e5d3",
    "product": "0b573c32b0938eaf",
}


@pytest.mark.parametrize("mode", CHANNEL_MODES)
def test_kernel_sweep_bytes_every_mode(mode, tmp_path):
    # nmems sweep --p-max 1 --p-steps 41 --theta-max pi/2 --theta-steps 21
    #   --quantities concurrence_ad,concurrence_ad_wootters,fidelity_ad,entropy_ad,mid
    #   --channel-mode <mode>
    spec = SweepSpec(
        p_min=0.0, p_max=1.0, p_steps=41,
        theta_min=0.0, theta_max=math.pi / 2, theta_steps=21,
        quantities=("concurrence_ad", "concurrence_ad_wootters", "fidelity_ad",
                    "entropy_ad", "mid"),
        channel_mode=mode,
    )
    digest = _csv_digest(spec, tmp_path / f"kernel_{mode}.csv")
    assert digest == KERNEL_MODE_SWEEP_SHA256[mode]


# sha256 prefixes of the raw float64/complex128 bytes, little-endian
EIGEN_SHA256 = "b4f7819b36f6bc8c"
FAMILY_SHA256 = "7e78ea8c8553bda8"


def test_dense_eigen_full_precision():
    # seeded random dense Hermitian matrices of every size the package uses
    rng = np.random.default_rng(6)
    h = hashlib.sha256()
    for n in (2, 3, 4, 8):
        for _ in range(25):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            spec = linalg.hermitian_eigen((g + g.conj().T) / 2.0)
            h.update(spec.eigenvalues.astype("<f8").tobytes())
            h.update(spec.eigenvectors.astype("<c16").tobytes())
    assert h.hexdigest()[:16] == EIGEN_SHA256


# sha256 prefixes over the 201 x 201 whole-domain grid, p = 1 and
# theta = pi/2 included: float.hex of the closed-form fidelity, and the
# four eigenvalues (little-endian float64) and trace tag of the damped
# state in every channel mode, from the scalar core.  The fidelity digest
# moved (from c5a416bb6b6f80ce) when the column took the factored form in
# place of the long radical form (now oracles.closed_form_fidelity_long)
FIDELITY_CF_SHA256 = "e008b22fc2fdb92a"
X_SPECTRUM_SHA256 = "88b074ab591a1953"
_DOMAIN_P = _grid(0.0, 1.0, 201)
_DOMAIN_THETA = _grid(0.0, math.pi / 2.0, 201)


def test_closed_form_fidelity_full_precision():
    h = hashlib.sha256()
    for p in _DOMAIN_P:
        for theta in _DOMAIN_THETA:
            h.update(fidelity_ad_closed_form(p, theta).hex().encode("ascii"))
    assert h.hexdigest()[:16] == FIDELITY_CF_SHA256


def test_family_and_damped_states_have_equal_inner_diagonal():
    # b == d bit for bit (the sign of a zero included) on every state of the
    # grid, in every mode, so _x_eigenvalues takes its constant angle
    for p in _DOMAIN_P:
        x = _xcore._family_x(p)
        assert x[1].hex() == x[3].hex(), p
        for theta in _DOMAIN_THETA:
            factors = _xcore._theta_factors(theta)
            for mode, image in _xcore._DAMPING.items():
                _, b, _, d, _ = image(x, factors)
                assert b.hex() == d.hex(), (mode, p, theta)


def test_x_spectrum_full_precision():
    h = hashlib.sha256()
    n = 0
    for mode in CHANNEL_MODES:
        for p in _DOMAIN_P:
            for theta in _DOMAIN_THETA:
                vals, tag = _x_spectrum(*_mode_damped_x(mode, p, theta))
                h.update(struct.pack("<4d", *vals))
                h.update(tag.encode("ascii"))
                n += 1
    assert n == 121_203
    assert h.hexdigest()[:16] == X_SPECTRUM_SHA256


def test_family_states_full_precision():
    # 11 x 9 grid with both ends: p = 1 and theta = pi/2 (gamma = 1) included
    h = hashlib.sha256()
    for p in np.linspace(0.0, 1.0, 11).tolist():
        base = nmems(p)
        states = [base]
        for theta in np.linspace(0.0, math.pi / 2.0, 9).tolist():
            ch = adc(math.sin(theta) ** 2)
            states += [
                nmems_ad(p, theta),
                apply_correlated_pair(ch, base),
                apply_product_pair(ch, base),
            ]
        for rho in states:
            h.update(rho.matrix.astype("<c16").tobytes())
            h.update(rho.spectrum.eigenvalues.astype("<f8").tobytes())
            h.update(rho.spectrum.eigenvectors.astype("<c16").tobytes())
            h.update(struct.pack("<d", rho.trace_value))
            h.update(rho.normalization.encode("ascii"))
    assert h.hexdigest()[:16] == FAMILY_SHA256


# sha256 prefix of float.hex(concurrence_wootters(rho)) over the states
# below, taken with K's singular values from the one-sided Jacobi sweeps.
# The matrix products (K = sqrt(rho) (sy x sy) sqrt(rho)*, sqrt(rho) from
# the spectrum, and g g^dagger of the dense states) run through BLAS zgemm,
# whose last bits depend on the kernel: OpenBLAS's fused multiply-add
# kernels (Haswell and later) and its older ones (Prescott to Sandybridge)
# give 321 of the 1,361 values differently.  Either digest pins every bit
# the singular-value step produces.
WOOTTERS_SHA256 = {"fma": "4bb9abe5a2e83466", "no_fma": "4475a5c06216d6c8"}


def _wootters_states():
    """Unit-trace states of every shape the spin-flip K takes: the
    damped images of both Kraus modes over the whole domain, random X states
    with their edges (c = 0, b == d, pure and rank-deficient diagonals), and
    seeded dense states of full and deficient rank."""
    for mode in ("correlated", "product"):
        for p in _grid(0.0, 1.0, 41):
            for theta in _grid(0.0, math.pi / 2.0, 21):
                try:
                    x = _mode_damped_x(mode, p, theta)
                except InputError:
                    continue
                if _x_spectrum(*x)[1] == UNIT:
                    yield DensityMatrix.from_matrix(oracles.x_matrix(*x))
    rng = np.random.default_rng(11)
    for k in range(150):
        m = oracles.random_x_state(rng)
        if k % 3 == 1:
            m[1, 2] = m[2, 1] = 0.0
        elif k % 3 == 2:
            mean = (m[1, 1] + m[2, 2]) / 2.0
            m[1, 1] = m[2, 2] = mean
        yield DensityMatrix.from_matrix(m)
    edges = [(1.0, 0.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0, 0.0),
             (0.0, 0.0, 0.0, 0.0, 1.0), (0.0, 0.5, 0.5, 0.5, 0.0),
             (0.0, 0.5, -0.5j, 0.5, 0.0), (0.5, 0.0, 0.0, 0.0, 0.5),
             (0.25, 0.25, 0.0, 0.25, 0.25), (0.25, 0.25, 0.25, 0.25, 0.25)]
    for x in edges:
        yield DensityMatrix.from_matrix(oracles.x_matrix(*x))
    for k in range(300):
        g = rng.standard_normal((4, 1 + k % 4)) + 1j * rng.standard_normal((4, 1 + k % 4))
        rho = g @ g.conj().T
        yield DensityMatrix.from_matrix(rho / np.trace(rho).real)


def test_wootters_full_precision():
    h = hashlib.sha256()
    n = 0
    for rho in _wootters_states():
        h.update(concurrence_wootters(rho).hex().encode("ascii"))
        n += 1
    assert n == 1_361
    assert h.hexdigest()[:16] in WOOTTERS_SHA256.values()
