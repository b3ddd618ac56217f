"""The README's library sketch and CLI examples run as stated."""

import re
import shlex
from pathlib import Path

from blochflow.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(heading, lang=""):
    """The first fenced block after ``heading`` in the README."""
    section = README.read_text(encoding="utf-8").split(heading, 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_library_sketch_runs():
    ns = {}
    exec(compile(_block("## Library sketch", "python"), str(README), "exec"), ns)
    assert len(ns["modes"]) == 4
    assert ns["chi"] == 0
    assert ns["C"] == 0
    assert ns["w"] == 1
    assert (ns["lo"], ns["hi"]) == (2, 4)
    assert ns["cs"] == [0, None, 1, None, 0]


def test_nonhermitian_example_runs():
    ns = {}
    exec(compile(_block("### Non-Hermitian winding", "python"), str(README), "exec"), ns)
    assert (ns["w_in"], ns["w_out"]) == (1, 0)


def test_cli_examples_run(tmp_path, capsys):
    lines = [line for line in _block("## CLI").splitlines() if line.startswith("blochflow ")]
    assert len(lines) >= 8
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        path = None
        if "--out" in argv:
            i = argv.index("--out") + 1
            path = tmp_path / argv[i]
            argv[i] = str(path)
        assert main(argv) == 0, line
        out, _ = capsys.readouterr()
        assert path.read_text() if path else out, line
