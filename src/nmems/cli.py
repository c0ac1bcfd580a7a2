"""Command-line front end.

Subcommands:
    sweep      free-form (p, theta) grid sweep to CSV; flags or a flat
               ``key = value`` spec file (flags win)
    preset     one-command reproduction of the four figure datasets
    headlines  print the headline-number report

Exit codes: 0 success, 1 rejected input, 2 I/O failure.
"""

import argparse
import math
import re
import sys

from .errors import InputError, NumericalError
from .sweep import (
    CHANNEL_MODES,
    PRESETS,
    QUANTITY_NAMES,
    SweepSpec,
    preset_spec,
    report_headlines,
    stream_csv,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_IO = 2

# a signed coefficient with at least one digit, or none at all ("pi", "-pi");
# compiled on first use, in re's own cache, as only parse_angle reads it
_PI_PATTERN = r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)?)\s*\*?\s*pi\s*(?:/\s*(\d+\.?\d*))?\s*$"


def parse_angle(text: str) -> float:
    """Parse an angle in radians; accepts plain floats and pi fractions
    such as ``pi``, ``pi/4``, ``3*pi/8`` or ``0.5pi``."""
    match = re.match(_PI_PATTERN, text, re.IGNORECASE)
    if match:
        coeff_text, denom_text = match.groups()
        if coeff_text in ("", "+"):
            coeff = 1.0
        elif coeff_text == "-":
            coeff = -1.0
        else:
            coeff = float(coeff_text)
        denom = float(denom_text) if denom_text else 1.0
        if denom == 0.0:
            raise InputError(f"zero denominator in angle {text!r}")
        return coeff * math.pi / denom
    try:
        return float(text)
    except ValueError:
        raise InputError(f"cannot parse angle {text!r}") from None


# every sweep setting, as argparse keyword arguments; each name is both a
# flag (--p-min) and a spec-file key (p-min or p_min), and all but ``out``
# are SweepSpec fields
_SWEEP_SETTINGS = {
    "p_min": dict(type=float),
    "p_max": dict(type=float),
    "p_steps": dict(type=int),
    "theta_min": dict(type=parse_angle),
    "theta_max": dict(type=parse_angle),
    "theta_steps": dict(type=int),
    "quantities": dict(
        type=str, help="comma-separated; known: " + ", ".join(QUANTITY_NAMES)
    ),
    "channel_mode": dict(type=str, help="one of: " + ", ".join(CHANNEL_MODES)),
    "out": dict(type=str, help="output CSV path"),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route through InputError so
    # usage problems land on the rejected-input exit code instead
    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nmems", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a (p, theta) grid sweep to CSV")
    sweep.add_argument("--spec-file", help="flat key = value file with the flags below")
    for key, kwargs in _SWEEP_SETTINGS.items():
        sweep.add_argument("--" + key.replace("_", "-"), **kwargs)

    preset = sub.add_parser("preset", help="emit one of the figure datasets")
    preset.add_argument("name", help="one of: " + ", ".join(sorted(PRESETS)))
    preset.add_argument("--out", help="output CSV path (default <name>.csv)")

    sub.add_parser("headlines", help="print the headline-number report")
    return parser


def load_spec_file(path: str) -> dict:
    """Read a flat ``key = value`` sweep description (keys mirror the flags;
    hyphens and underscores are interchangeable; # starts a comment)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from None
    values = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_").lower()
        value = value.strip()
        if key not in _SWEEP_SETTINGS:
            raise InputError(
                f"{path}:{lineno}: unknown key {key!r}; known keys: "
                + ", ".join(sorted(_SWEEP_SETTINGS))
            )
        try:
            values[key] = _SWEEP_SETTINGS[key]["type"](value)
        except (ValueError, InputError) as exc:
            raise InputError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    return values


def _split_quantities(text: str) -> tuple:
    return tuple(q.strip() for q in text.split(",") if q.strip())


def _run_sweep_command(ns) -> int:
    settings = load_spec_file(ns.spec_file) if ns.spec_file else {}
    for key in _SWEEP_SETTINGS:
        if getattr(ns, key) is not None:
            settings[key] = getattr(ns, key)

    out = settings.pop("out", "")
    if not out:
        raise InputError("an output path is required (--out or 'out =' in the file)")
    quantities = _split_quantities(settings.pop("quantities", ""))
    spec = SweepSpec(**settings, quantities=quantities)
    stream_csv(spec, out)
    print(f"wrote {out}")
    return EXIT_OK


def _run_preset_command(ns) -> int:
    spec = preset_spec(ns.name)
    out = ns.out or f"{ns.name}.csv"
    stream_csv(spec, out)
    print(f"wrote {out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.command == "sweep":
            return _run_sweep_command(ns)
        if ns.command == "preset":
            return _run_preset_command(ns)
        if ns.command == "headlines":
            sys.stdout.write(report_headlines())
            return EXIT_OK
        raise InputError(f"unknown command {ns.command!r}")
    except (InputError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
