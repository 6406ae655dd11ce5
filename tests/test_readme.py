"""Every ```python block of README.md runs without error."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks() -> list[tuple[int, str]]:
    """(first code line, source) of each fenced ```python block."""
    text = README.read_text(encoding="utf-8")
    return [(text.count("\n", 0, m.start(1)) + 1, m.group(1))
            for m in re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S)]


BLOCKS = python_blocks()


def test_readme_has_python_blocks():
    assert BLOCKS


# ids count the blocks, so an edit above a block does not rename its test
@pytest.mark.parametrize("line, source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(line, source, capsys):
    # each block runs alone, in a fresh namespace, as a reader would paste it
    exec(compile("\n" * (line - 1) + source, str(README), "exec"), {"__name__": "__readme__"})
    assert capsys.readouterr().out
