"""The README's library example runs as written."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    re.DOTALL | re.MULTILINE)


def test_the_readme_has_a_python_example():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_a_readme_python_block_runs_verbatim(code):
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})
