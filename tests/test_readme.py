"""The README's library sketch runs and prints the values its comments state."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library sketch", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    ns = {}
    exec(compile(block, str(README), "exec"), ns)
    assert len(ns["modes"]) == 9
    assert ns["chi"] == 0
    assert ns["C"] == 0
    assert ns["w"] == 1
    assert (ns["lo"], ns["hi"]) == (2, 4)
