"""The figure presets, the headline report, ``--help`` and sweeps of any
of the columns run without numpy, and without dataclasses; the matrix
API runs without logging.

Each command runs in a fresh interpreter as ``python -m nmems`` does, and
reports at exit whether numpy or dataclasses was ever imported, or runs
where numpy cannot be imported.  ``nmems`` exports its names lazily: each
resolves on first access and is cached in the module.  A streamed sweep's
peak memory does not grow with its grid.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import nmems
from nmems.sweep import (
    CHANNEL_MODES, PRESETS, QUANTITY_NAMES, SweepSpec, emit_csv, run_sweep,
)

from test_output_identity import (
    HEADLINES_SHA256,
    PRESET_SHA256,
    SCALAR_QUANTITIES,
    SCALAR_SWEEP_SHA256,
    SWEEP_SHA256,
)

# modules no CLI command needs: numpy (the per-point matrix API) and
# dataclasses (about 10 ms of start-up)
_UNWANTED = ("numpy", "dataclasses")

# python -m nmems ARGS..., once formatted with a tuple of module names: at
# exit (after the SystemExit that carries the command's exit code, --help's
# 0 included) it reports which of them were imported
_CLI = """
import atexit, runpy, sys
unwanted = %r
atexit.register(lambda: sys.stderr.write(
    "loaded: " + ",".join(m for m in unwanted if m in sys.modules) + "\\n"))
sys.argv = ["nmems", *sys.argv[1:]]
runpy.run_module("nmems", run_name="__main__", alter_sys=True)
"""


def _env() -> dict:
    # the child imports the same nmems as this process, installed or not
    src_dir = os.path.dirname(os.path.dirname(nmems.__file__))
    path = os.pathsep.join(filter(None, (src_dir, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def _python(args: list, cwd) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, cwd=cwd, env=_env(), check=False
    )


def _cli(args: list, cwd, *, unwanted: tuple = _UNWANTED, flags: tuple = ()) -> tuple:
    """(exit code, stdout bytes, the ``unwanted`` modules imported) of one
    run, with the interpreter's ``flags``."""
    result = _python([*flags, "-c", _CLI % (unwanted,), *args], cwd)
    last = result.stderr.decode("utf-8").splitlines()[-1]
    assert last.startswith("loaded: "), result.stderr
    return result.returncode, result.stdout, set(filter(None, last[8:].split(",")))


def test_import_loads_no_numpy(tmp_path):
    result = _python(["-c", "import sys, nmems; print('numpy' in sys.modules)"], tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout == b"False\n"


def test_matrix_api_imports_no_logging(tmp_path):
    # numpy alone does not import logging, and no module of the matrix API
    # keeps a logger
    result = _python(["-c", "import sys, nmems.measures; print('logging' in sys.modules)"],
                     tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout == b"False\n"


@pytest.mark.parametrize("args, names", [
    (["--help"], ("headlines",)),
    (["sweep", "--help"], CHANNEL_MODES),
    (["preset", "--help"], sorted(PRESETS)),
], ids=["nmems", "sweep", "preset"])
def test_help_loads_no_numpy(args, names, tmp_path):
    code, out, loaded = _cli(args, tmp_path)
    assert code == 0
    assert [name for name in names if name.encode() not in out] == []
    assert loaded == set()


@pytest.mark.parametrize("name", sorted(PRESET_SHA256))
def test_preset_loads_no_numpy(name, tmp_path):
    code, _, loaded = _cli(["preset", name, "--out", "out.csv"], tmp_path)
    assert code == 0
    assert loaded == set()
    digest = hashlib.sha256((tmp_path / "out.csv").read_bytes()).hexdigest()
    assert digest[:16] == PRESET_SHA256[name]


def test_headlines_load_no_numpy(tmp_path):
    code, out, loaded = _cli(["headlines"], tmp_path)
    assert code == 0
    assert loaded == set()
    assert hashlib.sha256(out).hexdigest()[:16] == HEADLINES_SHA256


def test_all_quantity_sweep_loads_no_numpy(tmp_path):
    # all fifteen columns, the spin-flip concurrences included, in every
    # channel mode, with the bytes of the in-process run
    for mode in CHANNEL_MODES:
        code, _, loaded = _cli([
            "sweep", "--p-max", "0.3", "--p-steps", "4", "--theta-max", "pi/4",
            "--theta-steps", "3", "--quantities", ",".join(QUANTITY_NAMES),
            "--channel-mode", mode, "--out", "out.csv",
        ], tmp_path)
        assert code == 0, mode
        assert loaded == set(), mode
        spec = SweepSpec(p_max=0.3, p_steps=4, theta_max=0.7853981633974483, theta_steps=3,
                         quantities=QUANTITY_NAMES, channel_mode=mode)
        emit_csv(run_sweep(spec), str(tmp_path / "want.csv"))
        assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


# typing and cmath serve only the matrix API; -S keeps a site hook (which
# may import typing itself) from loading them before nmems does
@pytest.mark.parametrize("args", [
    ["headlines"],
    ["preset", "fig1", "--out", "out.csv"],
    ["sweep", "--p-max", "0.3", "--p-steps", "4", "--theta-max", "pi/4",
     "--theta-steps", "3", "--quantities", ",".join(QUANTITY_NAMES), "--out", "out.csv"],
], ids=["headlines", "preset", "sweep"])
def test_cli_loads_no_typing_or_cmath(args, tmp_path):
    code, _, loaded = _cli(args, tmp_path, unwanted=("typing", "cmath", *_UNWANTED),
                           flags=("-S",))
    assert code == 0
    assert loaded == set()


# python -m nmems ARGS..., with the process's own peak resident size
# (VmHWM, in kB) at exit; ru_maxrss of a child can carry its parent's size
# across fork and exec
_PEAK = """
import atexit, runpy, sys
def report():
    with open("/proc/self/status") as fh:
        peak = [line.split()[1] for line in fh if line.startswith("VmHWM:")]
    sys.stderr.write(f"VmHWM kB: {peak[0]}\\n")
atexit.register(report)
sys.argv = ["nmems", *sys.argv[1:]]
runpy.run_module("nmems", run_name="__main__", alter_sys=True)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_sweep_memory_does_not_grow_with_the_grid(tmp_path):
    # rows are written as they are evaluated, none kept: 100,000 rows peak
    # within 10 MB of 100 rows (keeping them took about 0.33 kB a row)
    peaks = []
    for p_steps, theta_steps in ((10, 10), (500, 200)):
        result = _python([
            "-c", _PEAK, "sweep", "--p-max", "0.292", "--p-steps", str(p_steps),
            "--theta-max", "pi/4", "--theta-steps", str(theta_steps),
            "--quantities", "entropy_ad", "--out", "out.csv",
        ], tmp_path)
        assert result.returncode == 0, result.stderr
        last = result.stderr.decode("utf-8").splitlines()[-1]
        assert last.startswith("VmHWM kB: "), result.stderr
        peaks.append(int(last.split()[-1]))
        assert (tmp_path / "out.csv").read_bytes().count(b"\n") == 1 + p_steps * theta_steps
    assert peaks[1] - peaks[0] <= 10 * 1024, peaks


# python -m nmems ARGS... where numpy cannot be imported
_NO_NUMPY = """
import runpy, sys
sys.modules["numpy"] = None
sys.argv = ["nmems", *sys.argv[1:]]
runpy.run_module("nmems", run_name="__main__", alter_sys=True)
"""


def test_numpy_free_install(tmp_path):
    # the presets, the report and the 60 x 20 sweeps of all fifteen columns
    # work where numpy cannot be imported
    result = _python(["-c", _NO_NUMPY, "preset", "fig4", "--out", "out.csv"], tmp_path)
    assert result.returncode == 0, result.stderr
    digest = hashlib.sha256((tmp_path / "out.csv").read_bytes()).hexdigest()
    assert digest[:16] == PRESET_SHA256["fig4"]
    result = _python(["-c", _NO_NUMPY, "headlines"], tmp_path)
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout).hexdigest()[:16] == HEADLINES_SHA256
    for mode in CHANNEL_MODES:
        result = _python(["-c", _NO_NUMPY, *_benchmark_args(QUANTITY_NAMES, mode)], tmp_path)
        assert result.returncode == 0, result.stderr
        digest = hashlib.sha256((tmp_path / "out.csv").read_bytes()).hexdigest()
        assert digest[:16] == SWEEP_SHA256[mode], mode


def _benchmark_args(quantities: tuple, mode: str) -> list:
    """The CLI arguments of the benchmark's 60 x 20 sweep, to out.csv."""
    return [
        "sweep", "--p-min", "0", "--p-max", "0.292", "--p-steps", "60",
        "--theta-min", "0", "--theta-max", "pi/4", "--theta-steps", "20",
        "--quantities", ",".join(quantities), "--channel-mode", mode, "--out", "out.csv",
    ]


@pytest.mark.parametrize("mode", CHANNEL_MODES)
def test_scalar_sweep_without_numpy(mode, tmp_path):
    # the 60 x 20 sweep of the thirteen columns other than the spin-flip
    # concurrences, with the bytes of the in-process run with numpy
    result = _python(["-c", _NO_NUMPY, *_benchmark_args(SCALAR_QUANTITIES, mode)], tmp_path)
    assert result.returncode == 0, result.stderr
    digest = hashlib.sha256((tmp_path / "out.csv").read_bytes()).hexdigest()
    assert digest[:16] == SCALAR_SWEEP_SHA256[mode]


_EXPORTS = """
import json, sys
import nmems
first = {}
for name in nmems.__all__:
    before = name in vars(nmems)
    value = getattr(nmems, name)
    first[name] = [before, vars(nmems).get(name) is value]
print(json.dumps({
    "first": first,
    "dir": sorted(set(nmems.__all__) - set(dir(nmems))),
}))
"""


def test_exports_resolve_lazily_and_are_cached(tmp_path):
    # in a fresh interpreter: no name is bound before its first access,
    # and each is bound in the module after it
    result = _python(["-c", _EXPORTS], tmp_path)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert set(report["first"]) == set(nmems.__all__)
    assert {name: v for name, v in report["first"].items() if v != [False, True]} == {}
    assert report["dir"] == []


def test_exports_in_this_process():
    for name in nmems.__all__:
        value = getattr(nmems, name)
        assert vars(nmems)[name] is value, name
    assert set(nmems.__all__) <= set(dir(nmems))
    assert nmems.QUANTITIES is nmems.sweep.QUANTITIES
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(nmems, "no_such_name")
