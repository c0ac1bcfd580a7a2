"""Two-qubit entangled-mixed-state toolkit.

Builds the GHZ/W-mixture state family and its amplitude-damped image,
evaluates entanglement and teleportation witnesses, applies Kraus channels,
and computes concurrence, teleportation fidelity, von Neumann entropy,
measurement-induced disturbance, X-state quantum discord, and the CHSH
criterion.  The sweep module and ``nmems`` CLI turn all of it into CSV
tables over (p, theta) grids.

The names below are imported on first access.  The figure presets, the
headline report and every sweep column need only the standard library;
numpy loads with the first name of the matrix API.
"""

import importlib

# where each exported name of ``__all__`` lives; ``__getattr__`` imports
# the module on first access, so ``import nmems`` loads no numpy, and only
# the matrix API does
_EXPORTS = {
    "_xcore": ("binary_entropy", "fidelity_ad_closed_form"),
    "channels": (
        "KrausChannel", "adc", "apply_correlated_pair", "apply_product_pair",
        "apply_single", "gadc", "kraus_channel",
    ),
    "errors": ("InputError", "NumericalError"),
    "linalg": ("Spectrum", "hermitian_eigen", "kron", "partial_trace", "psd_sqrt", "trace"),
    "measures": (
        "ChshResult", "CorrelationMatrix", "DiscordBreakdown", "FidelityResult",
        "chsh_criterion", "concurrence_wootters", "concurrence_x", "correlation_matrix",
        "discord_x", "fidelity_from_correlation", "mid_adc", "mid_dephasing",
        "teleportation_fidelity", "von_neumann_entropy",
    ),
    "registry": ("QUANTITIES",),
    "states": (
        "DensityMatrix", "XStateParams", "ghz_reduced", "ghz_state", "nmems",
        "nmems_ad", "projector", "w_reduced", "w_state", "x_params_of",
    ),
    "sweep": (
        "CHANNEL_MODES", "PRESETS", "SweepRow", "SweepSpec", "emit_csv",
        "entanglement_boundary", "iter_sweep", "preset_spec", "report_headlines",
        "run_sweep",
    ),
    "witnesses": (
        "WitnessOperator", "WitnessVerdict", "evaluate", "witness_generic",
        "witness_stabilizer", "witness_w1",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
