"""Every module parses under the oldest Python that pyproject.toml declares,
and none imports numpy: the package and its tests need only the standard
library, pytest and hypothesis."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "ivbel").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _oldest_python() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_parses_under_the_oldest_supported_python(path):
    # feature_version rejects grammar newer than that version, such as
    # except* (3.11) or type parameter lists (3.12); it does not catch a
    # call into a newer standard library.
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=_oldest_python())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        assert not any(name.split(".")[0] == "numpy" for name in names), (path, node.lineno)
