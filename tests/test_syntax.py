"""Every module parses under the oldest Python that pyproject.toml declares,
none imports numpy or hypothesis (the package and its tests need only the
standard library and pytest), and every name a module imports is read."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "ivbel").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _label(path: Path) -> str:
    return f"{path.parent.name}/{path.name}"


def _oldest_python() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


# Packages that neither the package nor its tests may import.
REFUSED = {"numpy", "hypothesis"}


@pytest.mark.parametrize("path", SOURCES, ids=_label)
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
        assert not any(name.split(".")[0] in REFUSED for name in names), (path, node.lineno)


# Names bound on purpose but never read: ``ivbel.entropy`` is rebound to the
# function after the submodule loads (see ``ivbel/__init__.py``).
UNREAD_IMPORTS = {("ivbel/__init__.py", "entropy")}


@pytest.mark.parametrize("path", SOURCES, ids=_label)
def test_every_imported_name_is_read(path):
    # A name an import binds is read as a name somewhere in the module, or
    # exported through a literal __all__.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple)):
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                read.update(ast.literal_eval(node.value))
    unread = {
        name: line
        for name, line in bound.items()
        if name not in read and (_label(path), name) not in UNREAD_IMPORTS
    }
    assert unread == {}, path
