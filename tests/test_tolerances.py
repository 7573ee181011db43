"""Every tolerance in the package has a name, `reproduce` keeps no copy of
core's, and the total-conflict rule has one owner.

`MASS_DROP_EPS` is the mass that counts as none.  It is read by the one
total-conflict test (`fusion._total_conflict`), `normalize`'s refusal of a
structure with no mass, `Bpa`'s refusal of a mass below its negative, and
`reproduce`'s point-valued check; `Bpa` drops only zero masses."""

import ast
import re
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ivbel"
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")
TOLERANCE_LITERAL = re.compile(r"[eE]-\d")
# reproduce.py compares against printed reference tables; its 1e-3, 5e-3 and
# 1e-2 are the stated precision of those tables, not numerical tolerances.
TABLE_PRECISION = {"reproduce.py": {"1e-3", "5e-3", "1e-2"}}


def _stray_literals(path: Path) -> list[str]:
    """``...e-N`` number literals outside module-level constant definitions,
    apart from the table precisions the file may hold."""
    allowed = TABLE_PRECISION.get(path.name, set())
    stray = []
    statement: list[tokenize.TokenInfo] = []
    with path.open(encoding="utf-8") as fh:
        for tok in tokenize.generate_tokens(fh.readline):
            if tok.type == tokenize.NEWLINE:
                statement = []
                continue
            if tok.type in (tokenize.NL, tokenize.COMMENT, tokenize.INDENT, tokenize.DEDENT):
                continue
            statement.append(tok)
            if tok.type != tokenize.NUMBER or not TOLERANCE_LITERAL.search(tok.string):
                continue
            if tok.string in allowed:
                continue
            head = statement[0]
            is_constant = (
                head.start[1] == 0
                and CONSTANT.fullmatch(head.string) is not None
                and len(statement) > 1
                and statement[1].string in ("=", ":")
            )
            if not is_constant:
                stray.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    return stray


def test_tolerance_literals_are_named_constants():
    assert (SRC / "core.py").is_file()
    stray = [hit for path in sorted(SRC.glob("*.py")) for hit in _stray_literals(path)]
    assert stray == [], "name these tolerances as module-level constants: " + ", ".join(stray)


def _readers(path: Path, name: str) -> set[str]:
    """Dotted names of the functions (or ``<module>``) that read ``name``."""
    readers = set()

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            read = (isinstance(child, ast.Name) and child.id == name) or (
                isinstance(child, ast.Attribute) and child.attr == name
            )
            if read and isinstance(child.ctx, ast.Load):
                readers.add(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return readers


def test_total_conflict_has_one_owner():
    # Song's fold, Denoeux's normalization, Dempster's rule and Wang's tuples
    # decide total conflict through fusion._total_conflict, the one reader.
    readers = {
        f"{module}:{reader}"
        for module in ("fusion.py", "reference.py")
        for reader in _readers(SRC / module, "MASS_DROP_EPS")
    }
    assert readers == {"fusion.py:_total_conflict"}


def test_reproduce_reads_core_tolerances():
    # reproduce.py's numerical checks use core's MASS_SUM_TOL and
    # MASS_DROP_EPS; a module-level float of its own would be a second copy
    # that can drift from them.
    path = SRC / "reproduce.py"
    own = [
        ast.unparse(node)
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, float)
    ]
    assert own == [], "use core's tolerances: " + ", ".join(own)
    assert _readers(path, "MASS_SUM_TOL") and _readers(path, "MASS_DROP_EPS")
