"""Every ``python`` block of README.md runs as written, and the first one
prints what its closing comment says."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    re.M | re.S)


def run_block(source: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, str(README), "exec"), {"__name__": "__readme__"})
    return out.getvalue()


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_block_runs(index):
    run_block(BLOCKS[index])


def test_first_block_prints_its_comment():
    block = BLOCKS[0]
    comment = block.rstrip().splitlines()[-1]
    assert comment.startswith("# ")
    assert run_block(block).splitlines() == comment[2:].split(", ")
