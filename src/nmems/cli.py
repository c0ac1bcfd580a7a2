"""Command-line front end: ``nmems sweep``, ``preset NAME`` and ``headlines``.

Options go anywhere after the command, as ``--key value`` or ``--key=value``
spelled out in full, and the last of a repeated flag wins.  The sweep
settings are the flags and the spec-file keys of one table, which also
builds the ``--help`` page.

Exit codes: 0 success, 1 rejected input, 2 I/O failure (a closed stdout too).
"""

import math
import os
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


# every sweep setting: name -> (converter, help); each name is both a flag
# (--p-min) and a spec-file key (p-min or p_min), and all but ``out`` are
# SweepSpec fields
_SWEEP_SETTINGS = {
    "p_min": (float, "first p of the grid"),
    "p_max": (float, "last p of the grid"),
    "p_steps": (int, "number of p points"),
    "theta_min": (parse_angle, "first theta, in radians or as pi/8, 0.5pi, ..."),
    "theta_max": (parse_angle, "last theta"),
    "theta_steps": (int, "number of theta points"),
    "quantities": (str, "comma-separated names from the quantities below"),
    "channel_mode": (str, "one of the channel modes below"),
    "out": (str, "output CSV path"),
}

# each command, with its arguments and summary, and the settings it takes
_COMMANDS = {
    "sweep": ("sweep          a (p, theta) grid sweep to CSV", ("spec_file", *_SWEEP_SETTINGS)),
    "preset": ("preset NAME    a figure dataset, to --out or else NAME.csv", ("out",)),
    "headlines": ("headlines      the headline-number report, to stdout", ()),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _help() -> str:
    flags = [("spec_file", "flat key = value file of the settings below")]
    flags += [(key, text) for key, (_, text) in _SWEEP_SETTINGS.items()]
    names = QUANTITY_NAMES
    return "\n".join([
        "usage: nmems COMMAND [--KEY VALUE | --KEY=VALUE]...",
        *("  " + text for text, _ in _COMMANDS.values()),
        "sweep flags (the last of a repeated flag wins, and flags win over the file):",
        *(f"  {_flag(key):<16}{text}" for key, text in flags),
        "preset names: " + ", ".join(sorted(PRESETS)),
        "quantities:",
        *("  " + ", ".join(names[i:i + 4]) for i in range(0, len(names), 4)),
        "channel modes: " + ", ".join(CHANNEL_MODES),
        "exit codes: 0 success, 1 rejected input, 2 I/O failure",
        "",
    ])


def _parse(argv: list):
    """(command, {setting: text}, positional arguments) of ``argv``, or
    None where it asks for help."""
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        return None
    if command not in _COMMANDS:
        raise InputError(("no command" if command is None else f"unknown command {command!r}")
                         + "; choose from: " + ", ".join(_COMMANDS))
    rest = iter(argv[1:])
    flags = {_flag(key): key for key in _COMMANDS[command][1]}
    options, positionals = {}, []
    for arg in rest:
        if arg in ("-h", "--help"):
            return None
        if not arg.startswith("-"):
            positionals.append(arg)
            continue
        flag, eq, text = arg.partition("=")
        if flag not in flags:
            raise InputError(f"unknown option {flag!r} for {command}")
        if not eq:
            text = next(rest, None)
            if text is None:
                raise InputError(f"option {flag} needs a value")
        options[flags[flag]] = text
    return command, options, positionals


def _convert(key: str, text: str, where: str):
    """The value of sweep setting ``key`` read from ``text``; a bad value
    is an InputError that names ``where``, the flag or a file's path:line."""
    try:
        return _SWEEP_SETTINGS[key][0](text)
    except (ValueError, InputError) as exc:
        raise InputError(f"{where}: bad value: {exc}") from None


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
        if key not in _SWEEP_SETTINGS:
            raise InputError(
                f"{path}:{lineno}: unknown key {key!r}; known keys: "
                + ", ".join(sorted(_SWEEP_SETTINGS))
            )
        values[key] = _convert(key, value.strip(), f"{path}:{lineno}")
    return values


def _sweep_spec(options: dict) -> tuple:
    """The SweepSpec and output path of the sweep command's options."""
    spec_file = options.pop("spec_file", "")
    settings = load_spec_file(spec_file) if spec_file else {}
    settings.update((key, _convert(key, text, _flag(key))) for key, text in options.items())
    out = settings.pop("out", "")
    if not out:
        raise InputError("an output path is required (--out or 'out =' in the file)")
    quantities = tuple(q.strip() for q in settings.pop("quantities", "").split(",") if q.strip())
    return SweepSpec(**settings, quantities=quantities), out


def main(argv=None) -> int:
    try:
        parsed = _parse(sys.argv[1:] if argv is None else argv)
        if parsed is None:
            sys.stdout.write(_help())
        else:
            command, options, names = parsed
            if command == "preset" and len(names) != 1:
                raise InputError("preset takes one NAME; choose from: "
                                 + ", ".join(sorted(PRESETS)))
            if command != "preset" and names:
                raise InputError(f"unexpected argument {names[0]!r}")
            if command == "headlines":
                sys.stdout.write(report_headlines())
            else:
                spec, out = _sweep_spec(options) if command == "sweep" else (
                    preset_spec(names[0]), options.get("out") or f"{names[0]}.csv")
                stream_csv(spec, out)
                print(f"wrote {out}")
        # a reader that closed early fails here, as an I/O error, and not
        # in the interpreter's flush at exit
        sys.stdout.flush()
        return EXIT_OK
    except (InputError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        try:
            sys.stdout.flush()
        except OSError:
            # stdout is closed for good: what it still holds goes to
            # devnull at exit, where that flush cannot fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
