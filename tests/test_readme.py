"""The README's library quick start runs and prints what its comments say."""

import contextlib
import io
import re

from conftest import REPO_ROOT


def quick_start() -> str:
    """The first ``python`` block of README.md."""
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    return re.search(r"^```python\n(.*?)^```$", text, re.S | re.M).group(1)


def test_quick_start_prints_what_its_comments_state():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quick_start(), "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert "P2 comment 2" in lines
    assert "{'P1': 1.0, 'P2': 0.5, 'P3': 1.0}" in lines
    assert lines[-1] == "3"
