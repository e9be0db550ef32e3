"""The package root exports only what the CLI, the benchmark and the tests use."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import c4free

PACKAGE_DIR = Path(c4free.__file__).parent
REPO = Path(__file__).resolve().parents[1]


def _root_imports(path: Path, relative: bool) -> set[str]:
    # Names taken from the package root: `from c4free import x` and
    # `c4free.x`, or `from . import x` inside the package.
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            root = (node.level, node.module) == ((1, None) if relative else (0, "c4free"))
            if root:
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "c4free" and not relative:
                names.add(node.attr)
    return names


def _used_names() -> set[str]:
    used = _root_imports(PACKAGE_DIR / "cli.py", relative=True)
    for folder in (REPO / "tests", REPO / "perfbench"):
        for path in folder.rglob("*.py"):
            used |= _root_imports(path, relative=False)
    return used


def test_every_export_resolves():
    missing = [name for name in c4free.__all__ if not hasattr(c4free, name)]
    assert missing == []
    # __all__ is derived from the names the root imports, so a stray import of
    # anything outside the package would join it.
    foreign = [
        name for name in c4free.__all__
        if not getattr(getattr(c4free, name), "__module__", "").startswith("c4free.")
    ]
    assert foreign == [] and c4free.__all__ == sorted(set(c4free.__all__))


def test_every_export_has_a_caller():
    unused = sorted(set(c4free.__all__) - _used_names())
    assert unused == []


# `wc -l src/c4free/*.py`. A change that needs more lines raises this in the
# same diff and says why in CHANGES.md.
SRC_LINE_CEILING = 2715


def test_src_line_ceiling():
    paths = sorted((REPO / "src" / "c4free").glob("*.py"))
    lines = sum(path.read_bytes().count(b"\n") for path in paths)
    assert lines <= SRC_LINE_CEILING


def test_version_matches_pyproject():
    # Reports embed tool_version, so the package and its metadata move together.
    # A regex, not tomllib, which Python 3.10 lacks.
    text = (REPO / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^version\s*=\s*"([^"]*)"', text, re.MULTILINE)
    assert match is not None and match[1] == c4free.__version__
