"""Checks over the library's source text that no linter here makes."""

import ast

import pytest

from conftest import REPO_ROOT

MODULES = sorted(
    path for path in (REPO_ROOT / "src" / "logtrust").glob("*.py") if path.name != "__init__.py"
)


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with its line; ``__future__`` imports bind none."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, those in string annotations included."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
    trees = [tree]
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                trees.append(ast.parse(node.value, mode="eval"))
    return {
        node.id
        for root in trees
        for node in ast.walk(root)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    read = read_names(tree)
    unread = [f"{name} (line {line})" for name, line in imported_names(tree).items() if name not in read]
    assert not unread, f"{path.name} imports names it never reads: {', '.join(unread)}"


def test_the_check_sees_an_unread_import_and_a_string_annotation():
    tree = ast.parse(
        "import math\nfrom typing import Mapping, Optional\n"
        "def f(x: 'Optional[int]') -> None:\n    pass\n"
    )
    assert set(imported_names(tree)) - read_names(tree) == {"math", "Mapping"}
