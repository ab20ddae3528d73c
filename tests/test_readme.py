"""The README's library quick start runs and prints what its comments say,
and the names README and ``__all__`` offer exist."""

import contextlib
import io
import re
import types

import logtrust
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


def lower_level_entry_points() -> list[str]:
    """The backticked dotted names of README's "Lower-level entry points" paragraph.

    Code spans that are not plain names, such as calls, are left out.
    """
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    paragraph = re.search(r"^Lower-level entry points.*?(?=\n\n)", text, re.S | re.M).group(0)
    return re.findall(r"`([A-Za-z_][\w.]*)`", paragraph)


def resolves(name: str) -> bool:
    """Whether ``name`` resolves on ``logtrust``, one dotted attribute at a time."""
    value = logtrust
    for part in name.split("."):
        if not hasattr(value, part):
            return False
        value = getattr(value, part)
    return True


def test_exports_are_unique_and_resolve():
    names = logtrust.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not resolves(name)] == []
    # ``__all__`` is derived from the package's globals: it must take no
    # submodule with them, and must add the version
    assert [name for name in names if isinstance(getattr(logtrust, name), types.ModuleType)] == []
    assert "__version__" in names


def test_readme_entry_points_resolve():
    names = lower_level_entry_points()
    assert "kernel.GoverningIndex" in names and "merge_logs" in names
    assert [name for name in names if not resolves(name)] == []
