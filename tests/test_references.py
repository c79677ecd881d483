"""Every top-level function and class of the package has a reader in the
program, that is in the package or in perfbench's non-test code: code
that only tests call belongs in the tests."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "codeperturb").rglob("*.py"))
PROGRAM = PACKAGE + sorted(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))


def _reads(node: ast.AST, strings: bool) -> set[str]:
    """The names a statement reads: identifiers, attributes, imported names
    and, when `strings`, the words of its string constants (perfbench names
    the functions it wraps in strings)."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.update(sub.name.split("."))
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.update(re.findall(r"\w+", sub.value))
    return names


def test_every_top_level_definition_has_a_reader_in_the_program():
    statements = []  # (path, top-level statement, the names it reads)
    for path in PROGRAM:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        statements += [(path, stmt, _reads(stmt, path not in PACKAGE)) for stmt in tree.body]
    unread = [
        f"{path.relative_to(ROOT)}:{stmt.lineno} {stmt.name}"
        for path, stmt, _ in statements
        if path in PACKAGE
        and isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (stmt.name.startswith("__") and stmt.name.endswith("__"))
        and not any(stmt.name in names for _, other, names in statements if other is not stmt)
    ]
    assert unread == []
