"""The process entry: ``python -m nmems`` and the ``nmems`` console script
both run ``nmems.__main__.run``, which freezes the start-up heap before
``cli.main``; ``cli.main`` called in-process never freezes."""

import gc
import hashlib
import pathlib
import re

import pytest

import nmems.__main__ as entry
from nmems import cli

from test_numpy_free import _python
from test_output_identity import HEADLINES_SHA256, PRESET_SHA256

_PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

# python -m nmems ARGS..., reporting the freeze count at exit, after the
# SystemExit that carries the command's exit code
_FROZEN = """
import atexit, gc, runpy, sys
atexit.register(lambda: sys.stderr.write("frozen: %d\\n" % gc.get_freeze_count()))
sys.argv = ["nmems", *sys.argv[1:]]
runpy.run_module("nmems", run_name="__main__", alter_sys=True)
"""


def test_run_freezes_before_main_and_returns_its_code(monkeypatch):
    calls = []
    monkeypatch.setattr(entry.gc, "freeze", lambda: calls.append("freeze"))

    def main():
        calls.append("main")
        return 7

    monkeypatch.setattr(entry, "main", main)
    assert entry.run() == 7
    assert calls == ["freeze", "main"]


def test_main_in_process_does_not_freeze(capsys):
    assert gc.get_freeze_count() == 0
    assert cli.main(["headlines"]) == cli.EXIT_OK
    assert gc.get_freeze_count() == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest()[:16] == HEADLINES_SHA256


@pytest.mark.parametrize("args, code", [
    (["headlines"], cli.EXIT_OK),
    (["preset", "fig9"], cli.EXIT_INPUT),
    (["preset", "fig4", "--out", "missing/out.csv"], cli.EXIT_IO),
], ids=["ok", "input", "io"])
def test_module_entry_freezes_and_keeps_exit_codes(args, code, tmp_path):
    result = _python(["-c", _FROZEN, *args], tmp_path)
    assert result.returncode == code, result.stderr
    last = result.stderr.decode("utf-8").splitlines()[-1]
    match = re.fullmatch(r"frozen: (\d+)", last)
    assert match and int(match.group(1)) > 0, result.stderr
    if code == cli.EXIT_OK:
        assert hashlib.sha256(result.stdout).hexdigest()[:16] == HEADLINES_SHA256


def test_out_dev_stdout_into_a_pipe(tmp_path):
    # the child's stdout is a pipe, so /dev/stdout resolves to
    # /proc/<pid>/fd/pipe:[<n>], where no file can be opened: the CSV goes
    # to /dev/stdout as given, then the "wrote" line, and no file is left
    result = _python(["-m", "nmems", "preset", "fig4", "--out", "/dev/stdout"], tmp_path)
    assert (result.returncode, result.stderr) == (cli.EXIT_OK, b"")
    wrote = b"wrote /dev/stdout\n"
    assert result.stdout.endswith(wrote)
    csv = result.stdout[:-len(wrote)]
    assert hashlib.sha256(csv).hexdigest()[:16] == PRESET_SHA256["fig4"]
    assert list(tmp_path.iterdir()) == []


def test_console_script_is_the_frozen_entry():
    # a text check: tomllib is not in the standard library before 3.11
    text = _PYPROJECT.read_text(encoding="utf-8")
    section = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert re.findall(r"(?m)^nmems\s*=\s*\"([^\"]*)\"", section) == ["nmems.__main__:run"]
