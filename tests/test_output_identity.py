"""Byte-identity gate: the sha256 prefixes of the figure presets, the
headline report and the 60 x 20 all-quantity sweep in every channel mode.

A change to any evaluator that moves a single printed digit changes one of
these digests.  A deliberate change of output must update the digest here
and say which cells moved and why.
"""

import hashlib
import math

import pytest

from nmems.sweep import (
    CHANNEL_MODES,
    PRESETS,
    QUANTITIES,
    SweepSpec,
    emit_csv,
    report_headlines,
    run_sweep,
)

PRESET_SHA256 = {
    "fig1": "ff22b210e035cb22",
    "fig2": "8b93956310733932",
    "fig3": "772fdc8e29900fcb",
    "fig4": "bebc25d454b72ed1",
}
HEADLINES_SHA256 = "a89c0a91e91c36c0"
SWEEP_SHA256 = {
    "closed_form": "c94eb46d03930cca",
    "correlated": "944455e62ccb0ffa",
    "product": "d92eee9c119a2e3b",
}


def _csv_digest(spec: SweepSpec, path) -> str:
    emit_csv(run_sweep(spec), str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(PRESET_SHA256))
def test_preset_bytes(name, tmp_path):
    assert _csv_digest(PRESETS[name], tmp_path / f"{name}.csv") == PRESET_SHA256[name]


def test_headlines_bytes():
    digest = hashlib.sha256(report_headlines().encode("utf-8")).hexdigest()[:16]
    assert digest == HEADLINES_SHA256


@pytest.mark.parametrize("mode", CHANNEL_MODES)
def test_all_quantity_sweep_bytes(mode, tmp_path):
    # nmems sweep --p-max 0.292 --p-steps 60 --theta-max pi/4 --theta-steps 20
    #   --quantities <every QUANTITIES id, in registry order> --channel-mode <mode>
    spec = SweepSpec(
        p_min=0.0, p_max=0.292, p_steps=60,
        theta_min=0.0, theta_max=math.pi / 4, theta_steps=20,
        quantities=tuple(QUANTITIES), channel_mode=mode,
    )
    assert _csv_digest(spec, tmp_path / f"sweep_{mode}.csv") == SWEEP_SHA256[mode]
