"""The command line's own parser: every sweep setting as a flag (``--key
value`` or ``--key=value``) and as a spec-file key through one converter,
the usage errors and their exit codes, the ``--help`` page, a closed
stdout, and a start-up without argparse, gettext or locale."""

import hashlib
import os
import subprocess
import sys

import pytest

from nmems import cli
from nmems.cli import _SWEEP_SETTINGS, main
from nmems.sweep import CHANNEL_MODES, PRESETS, QUANTITY_NAMES

from test_numpy_free import _env, _python
from test_output_identity import PRESET_SHA256

# a value for each sweep setting, none of them SweepSpec's default
_VALUES = {
    "p_min": "0.05",
    "p_max": "0.25",
    "p_steps": "3",
    "theta_min": "pi/8",
    "theta_max": "3*pi/8",
    "theta_steps": "4",
    "quantities": "concurrence_ad,entropy_ad",
    "channel_mode": "product",
    "out": "out.csv",
}


def _flags(form: str, values: dict) -> list:
    if form == "space":
        return [arg for key, text in values.items() for arg in (cli._flag(key), text)]
    return [f"{cli._flag(key)}={text}" for key, text in values.items()]


def test_values_cover_every_setting():
    assert set(_VALUES) == set(_SWEEP_SETTINGS)


@pytest.mark.parametrize("form", ["space", "equals"])
def test_every_flag_writes_the_spec_file_bytes(form, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "all.cfg").write_text(
        "".join(f"{key} = {text}\n" for key, text in {**_VALUES, "out": "file.csv"}.items())
    )
    assert main(["sweep", "--spec-file", "all.cfg"]) == 0
    assert main(["sweep", *_flags(form, _VALUES)]) == 0
    data = (tmp_path / "out.csv").read_bytes()
    assert data == (tmp_path / "file.csv").read_bytes()
    assert data.splitlines()[0] == b"p,theta,concurrence_ad,entropy_ad"
    assert data.count(b"\n") == 1 + 3 * 4


def test_repeated_flag_keeps_its_last_value(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    first = {**_VALUES, "p_steps": "7", "channel_mode": "correlated", "out": "first.csv"}
    assert main(["sweep", *_flags("space", first), *_flags("equals", _VALUES)]) == 0
    assert main(["sweep", *_flags("equals", {**_VALUES, "out": "once.csv"})]) == 0
    assert not (tmp_path / "first.csv").exists()
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "once.csv").read_bytes()


# a bad value for each converter that can reject one, with its message
_BAD = [
    ("p_min", "x", "could not convert string to float: 'x'"),
    ("p_steps", "2.5", "invalid literal for int() with base 10: '2.5'"),
    ("theta_max", ".pi", "cannot parse angle '.pi'"),
]


@pytest.mark.parametrize("key, text, message", _BAD, ids=[key for key, _, _ in _BAD])
def test_bad_value_names_the_flag_or_the_file_line(key, text, message, tmp_path, monkeypatch,
                                                   capsys):
    monkeypatch.chdir(tmp_path)
    flag = cli._flag(key)
    for args in (["sweep", flag, text], ["sweep", f"{flag}={text}"]):
        assert main([*args, "--quantities", "concurrence", "--out", "x.csv"]) == cli.EXIT_INPUT
        assert capsys.readouterr() == ("", f"error: {flag}: bad value: {message}\n")
    (tmp_path / "bad.cfg").write_text(f"# one bad line\n{key} = {text}\nout = x.csv\n")
    assert main(["sweep", "--spec-file", "bad.cfg"]) == cli.EXIT_INPUT
    assert capsys.readouterr() == ("", f"error: bad.cfg:2: bad value: {message}\n")
    assert list(tmp_path.iterdir()) == [tmp_path / "bad.cfg"]


# the step counts and float settings take int()'s and float()'s syntax:
# digit-group underscores, a sign and any Unicode decimal digits
_PYTHON_NUMBERS = [
    ("p_steps", "1_000", 1000),
    ("theta_steps", "+3", 3),
    ("theta_steps", "\u0663", 3),
    ("p_max", "+0.2_5", 0.25),
]


@pytest.mark.parametrize("key, text, value", _PYTHON_NUMBERS,
                         ids=[text for _, text, _ in _PYTHON_NUMBERS])
def test_numbers_take_python_syntax(key, text, value, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    specs = []
    monkeypatch.setattr(cli, "stream_csv", lambda spec, out: specs.append(spec))
    (tmp_path / "n.cfg").write_text(f"{key} = {text}\nquantities = mid\nout = x.csv\n",
                                   encoding="utf-8")
    assert main(["sweep", "--spec-file", "n.cfg"]) == cli.EXIT_OK
    assert main(["sweep", cli._flag(key), text, "--quantities", "mid", "--out", "x.csv"]) == 0
    assert capsys.readouterr() == ("wrote x.csv\n" * 2, "")
    assert [getattr(spec, key) for spec in specs] == [value, value]


_COMMANDS = "choose from: sweep, preset, headlines"
_NAMES = "preset takes one NAME; choose from: fig1, fig2, fig3, fig4"

# argv -> the stderr of its usage error, which exits 1 and writes nothing
_USAGE = {
    "unknown flag": (["sweep", "--no-such-flag"],
                     "error: unknown option '--no-such-flag' for sweep\n"),
    "abbreviated flag": (["sweep", "--p-ma", "0.2", "--out", "x.csv"],
                         "error: unknown option '--p-ma' for sweep\n"),
    "abbreviated flag with =": (["sweep", "--out=x.csv", "--p-ma=0.2"],
                                "error: unknown option '--p-ma' for sweep\n"),
    "underscore flag": (["sweep", "--p_max", "0.2"], "error: unknown option '--p_max' for sweep\n"),
    "missing value": (["sweep", "--out", "x.csv", "--p-max"],
                      "error: option --p-max needs a value\n"),
    "unknown command": (["sweeps", "--out", "x.csv"],
                        f"error: unknown command 'sweeps'; {_COMMANDS}\n"),
    "no command": ([], f"error: no command; {_COMMANDS}\n"),
    "option before the command": (["--out", "x.csv", "headlines"],
                                  f"error: unknown command '--out'; {_COMMANDS}\n"),
    "preset without a name": (["preset", "--out", "x.csv"], f"error: {_NAMES}\n"),
    "preset with two names": (["preset", "fig1", "fig2"], f"error: {_NAMES}\n"),
    "sweep flag to preset": (["preset", "fig4", "--p-min", "0"],
                             "error: unknown option '--p-min' for preset\n"),
    "stray argument after headlines": (["headlines", "fig1"],
                                       "error: unexpected argument 'fig1'\n"),
    "option to headlines": (["headlines", "--out", "x.csv"],
                            "error: unknown option '--out' for headlines\n"),
    "stray argument to sweep": (["sweep", "concurrence", "--out", "x.csv"],
                                "error: unexpected argument 'concurrence'\n"),
}


@pytest.mark.parametrize("argv, err", _USAGE.values(), ids=_USAGE)
def test_usage_error_exits_one(argv, err, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == cli.EXIT_INPUT
    assert capsys.readouterr() == ("", err)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["preset", "--out", "x.csv", "fig4"],
    ["preset", "--out=x.csv", "fig4"],
    ["preset", "--out", "other.csv", "fig4", "--out", "x.csv"],
], ids=["space", "equals", "repeated"])
def test_preset_options_go_before_or_after_the_name(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == cli.EXIT_OK
    assert capsys.readouterr() == ("wrote x.csv\n", "")
    assert list(tmp_path.iterdir()) == [tmp_path / "x.csv"]
    digest = hashlib.sha256((tmp_path / "x.csv").read_bytes()).hexdigest()
    assert digest[:16] == PRESET_SHA256["fig4"]


@pytest.mark.parametrize("argv", [
    ["--help"], ["-h"], ["sweep", "--help"], ["sweep", "--out", "x.csv", "-h"],
    ["preset", "--help"], ["preset", "fig4", "-h"], ["headlines", "--help"],
])
def test_help_page_comes_from_the_tables(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == cli.EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    words = ["sweep", "preset", "headlines", "--spec-file", *sorted(PRESETS),
             *QUANTITY_NAMES, *CHANNEL_MODES]
    words += [f"{cli._flag(key)} " for key in _SWEEP_SETTINGS]
    words += [text for _, text in _SWEEP_SETTINGS.values()]
    assert [word for word in words if word not in out] == []
    assert list(tmp_path.iterdir()) == []


def _closed_stdout(args: list, cwd) -> subprocess.CompletedProcess:
    # a pipe whose reader is gone before the command writes, with the
    # interpreter's default buffered stdout
    env = {k: v for k, v in _env().items() if k != "PYTHONUNBUFFERED"}
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.run([sys.executable, "-m", "nmems", *args], stdout=write,
                              stderr=subprocess.PIPE, cwd=cwd, env=env, check=False)
    finally:
        os.close(write)


@pytest.mark.parametrize("args", [
    ["headlines"],
    ["preset", "fig4", "--out", "f.csv"],
    ["preset", "fig4", "--out", "/dev/stdout"],
], ids=["headlines", "preset", "preset-to-stdout"])
def test_closed_stdout_is_an_io_error(args, tmp_path):
    # exit 2 with one line, for stdout and a pipe at --out alike, and not
    # the interpreter's exit-time flush failing with exit 120 and a traceback
    result = _closed_stdout(args, tmp_path)
    lines = result.stderr.decode("utf-8").splitlines()
    assert result.returncode == cli.EXIT_IO, lines
    assert len(lines) == 1 and lines[0].startswith("I/O error: "), lines
    assert lines[0].endswith("Broken pipe"), lines
    if args[-1] == "f.csv":
        # the CSV was complete before the "wrote" line failed
        digest = hashlib.sha256((tmp_path / "f.csv").read_bytes()).hexdigest()
        assert digest[:16] == PRESET_SHA256["fig4"]


def test_start_up_imports_no_argparse_gettext_or_locale(tmp_path):
    # -X importtime lists every module the command imports, on stderr;
    # -S keeps a site hook from importing any of them first
    result = _python(["-S", "-X", "importtime", "-m", "nmems", "preset", "fig4",
                      "--out", "out.csv"], tmp_path)
    assert result.returncode == 0, result.stderr
    modules = [line.rsplit("|", 1)[-1].strip()
               for line in result.stderr.decode("utf-8").splitlines()]
    assert "nmems.cli" in modules
    assert [m for m in modules if m in ("argparse", "gettext", "locale")] == []
