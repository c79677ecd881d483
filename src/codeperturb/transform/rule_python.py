"""Deterministic rule-based transformations for Python sources.

Each rule is rewrite(text, rng) -> (new_text, entry_point): it analyzes
the module with ast, draws one applicable site with shared.pick (which
raises NotApplicable when there is none), and splices a minimal text edit
so the rest of the file (comments, formatting) is untouched.
"""

from __future__ import annotations

import ast
import random

from ..analysis import line_offsets
from ..errors import ParseError
from ..lexing import TokenKind, lex
from ..core import Language
from .shared import (
    FN_WORDS, PREDICATE_WORDS, VAR_WORDS, fresh, indent_lines, pick, replace_tokens, splice,
)

INDENT = "    "


def _parse(text: str) -> ast.Module:
    try:
        return ast.parse(text)
    except SyntaxError as exc:
        raise ParseError(f"cannot parse python source: {exc}") from exc


def _span(offsets: list[int], node: ast.AST) -> tuple[int, int]:
    start = offsets[node.lineno - 1] + node.col_offset
    end = offsets[node.end_lineno - 1] + node.end_col_offset
    return start, end


def _identifiers(text: str) -> set[str]:
    return {t.text for t in lex(text, Language.PYTHON) if t.kind in (TokenKind.IDENT, TokenKind.KEYWORD)}


def _functions(tree: ast.Module) -> list[ast.FunctionDef]:
    return [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _own_line(text: str, offsets: list[int], node: ast.stmt) -> bool:
    """The statement starts its line (nothing but whitespace before it)."""
    line_start = offsets[node.lineno - 1]
    prefix = text[line_start : line_start + node.col_offset]
    return prefix.strip() == ""


def _is_docstring(parent_body: list[ast.stmt], node: ast.stmt) -> bool:
    return (
        parent_body
        and parent_body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _blocks(tree: ast.Module):
    """Yield every statement list in the module (module body, function
    bodies, branch bodies, ...)."""
    yield tree.body
    for node in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
                yield block
        for handler in getattr(node, "handlers", []):
            yield handler.body


def _enclosing_function(tree: ast.Module, node: ast.AST) -> str:
    best = None
    for fn in _functions(tree):
        if fn.lineno <= node.lineno and node.end_lineno <= fn.end_lineno:
            if best is None or fn.lineno >= best.lineno:
                best = fn
    return best.name if best is not None else "<module>"


def _kwarg_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            for kw in node.keywords:
                if kw.arg:
                    names.add(kw.arg)
    return names


def _param_names(tree: ast.Module) -> set[str]:
    names = set()
    for fn in _functions(tree):
        a = fn.args
        for arg in a.posonlyargs + a.args + a.kwonlyargs:
            names.add(arg.arg)
        if a.vararg:
            names.add(a.vararg.arg)
        if a.kwarg:
            names.add(a.kwarg.arg)
    return names


def _attribute_names(tree: ast.Module) -> set[str]:
    return {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}


def _rename_tokens(text: str, renames: dict[str, str], start: int = 0, end: int | None = None) -> str:
    """Rename identifier tokens within [start, end) by the {old: new} map, in one pass."""
    end = len(text) if end is None else end
    hits = [
        tok
        for tok in lex(text, Language.PYTHON)
        if tok.kind is TokenKind.IDENT and tok.text in renames and start <= tok.start and tok.end <= end
    ]
    return replace_tokens(text, hits, renames, "no occurrences of {!r} to rename")


# ---------------------------------------------------------------------------
# Basic methods
# ---------------------------------------------------------------------------

def function_rename(text: str, rng: random.Random):
    tree = _parse(text)
    hazards = _kwarg_names(tree) | _param_names(tree) | _attribute_names(tree)
    hazards |= {n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                hazards.add((alias.asname or alias.name).split(".")[0])
    candidates = [
        n.name
        for n in tree.body
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not n.name.startswith("__")
        and n.name not in hazards
    ]
    old = pick(sorted(candidates), rng, "no safely renameable module-level function")
    new = fresh(_identifiers(text), rng, FN_WORDS)
    return _rename_tokens(text, {old: new}), new


def _local_candidates(fn: ast.FunctionDef, tree: ast.Module) -> list[str]:
    assigned: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            assigned.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            assigned.add(node.name)
    banned: set[str] = {"_", "self", "cls"}
    for node in ast.walk(fn):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            banned.update(node.names)
        elif isinstance(node, ast.Call):
            for kw in node.keywords:
                if kw.arg:
                    banned.add(kw.arg)
        elif isinstance(node, ast.Attribute):
            banned.add(node.attr)
    params = _param_names(tree)
    module_level = {
        n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    return sorted(assigned - banned - params - module_level)


def variables_rename(text: str, rng: random.Random):
    tree = _parse(text)
    options = [(fn, _local_candidates(fn, tree)) for fn in _functions(tree)]
    options = [(fn, names) for fn, names in options if names]
    fn, names = pick(options, rng, "no function with safely renameable locals")
    existing = _identifiers(text)
    renames = {old: fresh(existing, rng, VAR_WORDS) for old in names}
    return _rename_tokens(text, renames, *_span(line_offsets(text), fn)), fn.name


def _insertion_sites(text: str, offsets: list[int], tree: ast.Module, inside_functions: bool):
    """Statements one can insert a new line before."""
    sites = []
    fn_ranges = [(f.lineno, f.end_lineno) for f in _functions(tree)]
    for block in _blocks(tree):
        for stmt in block:
            if _is_docstring(block, stmt):
                continue
            if not _own_line(text, offsets, stmt):
                continue
            if getattr(stmt, "decorator_list", None):
                continue
            # An elif shares source with its parent if; not a splice target.
            if isinstance(stmt, ast.If) and _starts_with(text, offsets, stmt, "elif"):
                continue
            in_fn = any(lo <= stmt.lineno <= hi for lo, hi in fn_ranges)
            if inside_functions and not in_fn:
                continue
            sites.append(stmt)
    return sites


def _insert_before(text: str, offsets: list[int], stmt: ast.stmt, new_lines: list[str]) -> str:
    indent = " " * stmt.col_offset
    pos = offsets[stmt.lineno - 1]
    chunk = "".join(indent + ln + "\n" for ln in new_lines)
    return text[:pos] + chunk + text[pos:]


def insert_junk_loop(text: str, rng: random.Random):
    tree = _parse(text)
    offsets = line_offsets(text)
    sites = _insertion_sites(text, offsets, tree, inside_functions=True)
    stmt = pick(sites, rng, "no statement to anchor a junk loop")
    v = fresh(_identifiers(text), rng, VAR_WORDS)
    template = rng.choice(
        [
            [f"for {v} in range(0):", f"{INDENT}pass"],
            ["while False:", f"{INDENT}{v} = 0"],
            [f"for {v} in []:", f"{INDENT}break"],
        ]
    )
    entry = _enclosing_function(tree, stmt)
    return _insert_before(text, offsets, stmt, template), entry


def insert_variables(text: str, rng: random.Random):
    tree = _parse(text)
    offsets = line_offsets(text)
    sites = _insertion_sites(text, offsets, tree, inside_functions=True)
    stmt = pick(sites, rng, "no statement to anchor an unused variable")
    v = fresh(_identifiers(text), rng, VAR_WORDS)
    value = rng.choice(["0", "1", "-1", "0.0", "''", "[]", "None"])
    entry = _enclosing_function(tree, stmt)
    return _insert_before(text, offsets, stmt, [f"{v} = {value}"]), entry


def insert_junk_function(text: str, rng: random.Random):
    tree = _parse(text)
    name = fresh(_identifiers(text), rng, FN_WORDS)
    k = rng.randrange(2, 40)
    chunk = f"\n\ndef {name}():\n{INDENT}return {k}\n"
    if not text.endswith("\n"):
        chunk = "\n" + chunk
    return text + chunk, name


def add_exception(text: str, rng: random.Random):
    tree = _parse(text)
    offsets = line_offsets(text)
    sites = [
        s
        for s in _insertion_sites(text, offsets, tree, inside_functions=True)
        if not isinstance(s, (ast.Try, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    stmt = pick(sites, rng, "no statement to wrap in a handler")
    start, end = _span(offsets, stmt)
    indent = " " * stmt.col_offset
    body = "\n".join(indent_lines(text[start:end].split("\n"), INDENT))
    new = f"try:\n{indent}{body}\n{indent}except Exception:\n{indent}{INDENT}raise"
    entry = _enclosing_function(tree, stmt)
    return splice(text, start, end, new), entry


def statement_wrapping(text: str, rng: random.Random):
    tree = _parse(text)
    offsets = line_offsets(text)
    sites = _insertion_sites(text, offsets, tree, inside_functions=False)
    stmt = pick(sites, rng, "no wrappable statement")
    has_jump = any(isinstance(n, (ast.Break, ast.Continue)) for n in ast.walk(stmt))
    use_for = not has_jump and rng.random() < 0.5
    start, end = _span(offsets, stmt)
    indent = " " * stmt.col_offset
    body = "\n".join(indent_lines(text[start:end].split("\n"), INDENT))
    if use_for:
        v = fresh(_identifiers(text), rng, VAR_WORDS)
        header = f"for {v} in range(1):"
    else:
        header = "if True:"
    new = f"{header}\n{indent}{body}"
    entry = _enclosing_function(tree, stmt)
    return splice(text, start, end, new), entry


# ---------------------------------------------------------------------------
# Arithmetic methods
# ---------------------------------------------------------------------------

_AUG_OPS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.FloorDiv: "//",
    ast.Mod: "%", ast.Pow: "**", ast.LShift: "<<", ast.RShift: ">>",
    ast.BitOr: "|", ast.BitXor: "^", ast.BitAnd: "&", ast.MatMult: "@",
}


def _pure_target(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return True
    if isinstance(node, ast.Attribute):
        return isinstance(node.value, ast.Name)
    if isinstance(node, ast.Subscript):
        return isinstance(node.value, ast.Name) and isinstance(node.slice, (ast.Name, ast.Constant))
    return False


def modify_operations(text: str, rng: random.Random):
    tree = _parse(text)
    offsets = line_offsets(text)
    sites = [
        n
        for n in ast.walk(tree)
        if isinstance(n, ast.AugAssign) and _pure_target(n.target) and type(n.op) in _AUG_OPS
    ]
    node = pick(sites, rng, "no compound assignment")
    start, end = _span(offsets, node)
    target_src = ast.get_source_segment(text, node.target)
    value_src = ast.get_source_segment(text, node.value)
    op = _AUG_OPS[type(node.op)]
    if not isinstance(node.value, (ast.Name, ast.Constant)):
        value_src = f"({value_src})"
    new = f"{target_src} = {target_src} {op} {value_src}"
    entry = _enclosing_function(tree, node)
    return splice(text, start, end, new), entry


def _int_literal_sites(tree: ast.Module):
    skip_spans: list[tuple[int, int]] = []
    for node in ast.walk(tree):
        blockers = []
        if isinstance(node, ast.JoinedStr):
            blockers.append(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            blockers.extend(a.annotation for a in node.args.args if a.annotation)
            if node.returns:
                blockers.append(node.returns)
        if isinstance(node, ast.AnnAssign):
            blockers.append(node.annotation)
        if isinstance(node, ast.Match):
            blockers.extend(case.pattern for case in node.cases)
        for b in blockers:
            skip_spans.append((b.lineno, b.end_lineno))
    sites = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Constant)
            and type(node.value) is int
            and 2 <= node.value <= 10**9
            and not any(lo <= node.lineno <= hi for lo, hi in skip_spans)
        ):
            sites.append(node)
    return sites


def equi_arithmetic_expression(text: str, rng: random.Random):
    tree = _parse(text)
    offsets = line_offsets(text)
    node = pick(_int_literal_sites(tree), rng, "no integer literal to decompose")
    start, end = _span(offsets, node)
    k = rng.randrange(1, min(node.value - 1, 9) + 1)
    new = f"({node.value - k} + {k})"
    entry = _enclosing_function(tree, node)
    return splice(text, start, end, new), entry


# ---------------------------------------------------------------------------
# Logic methods
# ---------------------------------------------------------------------------

_MIRROR = {ast.Lt: ">", ast.Gt: "<", ast.LtE: ">=", ast.GtE: "<=", ast.Eq: "==", ast.NotEq: "!="}

_PURE_BIN_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod)


def _side_effect_free(node: ast.expr) -> bool:
    if isinstance(node, (ast.Name, ast.Constant)):
        return True
    if isinstance(node, ast.Attribute):
        return _side_effect_free(node.value)
    if isinstance(node, ast.Subscript):
        return _side_effect_free(node.value) and _side_effect_free(node.slice)
    if isinstance(node, ast.UnaryOp):
        return _side_effect_free(node.operand)
    if isinstance(node, ast.BinOp) and isinstance(node.op, _PURE_BIN_OPS):
        return _side_effect_free(node.left) and _side_effect_free(node.right)
    if isinstance(node, ast.Tuple):
        return all(_side_effect_free(e) for e in node.elts)
    return False


def _swappable_compares(test: ast.expr) -> list[ast.Compare]:
    found = []
    for node in ast.walk(test):
        if (
            isinstance(node, ast.Compare)
            and len(node.ops) == 1
            and type(node.ops[0]) in _MIRROR
            and _side_effect_free(node.left)
            and _side_effect_free(node.comparators[0])
        ):
            found.append(node)
    return found


def swap_boolean_expression(text: str, rng: random.Random):
    tree = _parse(text)
    offsets = line_offsets(text)
    sites = [
        n for n in ast.walk(tree) if isinstance(n, (ast.If, ast.While)) and _swappable_compares(n.test)
    ]
    node = pick(sites, rng, "no comparison with safely swappable operands")
    edits = []
    for cmp_node in _swappable_compares(node.test):
        start, end = _span(offsets, cmp_node)
        left = ast.get_source_segment(text, cmp_node.left)
        right = ast.get_source_segment(text, cmp_node.comparators[0])
        op = _MIRROR[type(cmp_node.ops[0])]
        edits.append((start, end, f"{right} {op} {left}"))
    for start, end, new in sorted(edits, reverse=True):
        text = splice(text, start, end, new)
    entry = _enclosing_function(tree, node)
    return text, entry


def equi_boolean_logic(text: str, rng: random.Random):
    tree = _parse(text)
    offsets = line_offsets(text)
    sites = [n for n in ast.walk(tree) if isinstance(n, (ast.If, ast.While))]
    sites = [
        n
        for n in sites
        if not any(isinstance(x, (ast.NamedExpr, ast.Await, ast.Yield, ast.YieldFrom)) for x in ast.walk(n.test))
    ]
    node = pick(sites, rng, "no condition to rewrite")
    start, end = _span(offsets, node.test)
    test = node.test
    if isinstance(test, ast.BoolOp):
        parts = [f"not ({ast.get_source_segment(text, v)})" for v in test.values]
        joiner = " or " if isinstance(test.op, ast.And) else " and "
        new = f"not ({joiner.join(parts)})"
    else:
        new = f"not (not ({ast.get_source_segment(text, test)}))"
    entry = _enclosing_function(tree, node)
    return splice(text, start, end, new), entry


# ---------------------------------------------------------------------------
# Condition methods
# ---------------------------------------------------------------------------

def _starts_with(text: str, offsets: list[int], node: ast.stmt, word: str) -> bool:
    start = offsets[node.lineno - 1] + node.col_offset
    return text.startswith(word, start)


def div_composed_if(text: str, rng: random.Random):
    tree = _parse(text)
    offsets = line_offsets(text)
    sites = [
        n
        for n in ast.walk(tree)
        if isinstance(n, ast.If)
        and isinstance(n.test, ast.BoolOp)
        and isinstance(n.test.op, ast.And)
        and not n.orelse
        and _starts_with(text, offsets, n, "if")
        and n.body[0].lineno > n.lineno
        and n.test.lineno == n.test.end_lineno
        and not any(isinstance(x, ast.NamedExpr) for x in ast.walk(n.test))
    ]
    node = pick(sites, rng, "no composed if without else")
    start, end = _span(offsets, node)
    indent = " " * node.col_offset
    conds = [ast.get_source_segment(text, v) for v in node.test.values]
    body_start = offsets[node.body[0].lineno - 1]
    body_src = text[body_start:end]
    depth = len(conds)
    # The splice point sits after the original indentation, so the first
    # header carries none; the nested ones need absolute indents.
    headers = [f"if {conds[0]}:"] + [
        indent + (INDENT * i) + f"if {c}:" for i, c in enumerate(conds[1:], start=1)
    ]
    body = indent_lines(body_src.rstrip("\n").split("\n"), INDENT * (depth - 1))
    new = "\n".join(headers + body)
    entry = _enclosing_function(tree, node)
    return splice(text, start, end, new), entry


def div_if_else(text: str, rng: random.Random):
    tree = _parse(text)
    offsets = line_offsets(text)
    sites = [
        n
        for n in ast.walk(tree)
        if isinstance(n, ast.If)
        and len(n.orelse) == 1
        and isinstance(n.orelse[0], ast.If)
        and _starts_with(text, offsets, n.orelse[0], "elif")
    ]
    node = pick(sites, rng, "no elif chain")
    elif_node = node.orelse[0]
    start, end = _span(offsets, elif_node)
    indent = " " * elif_node.col_offset
    segment = text[start:end]
    assert segment.startswith("elif")
    segment = "if" + segment[len("elif") :]
    new = f"else:\n{indent}" + "\n".join(indent_lines(segment.split("\n"), INDENT))
    entry = _enclosing_function(tree, node)
    return splice(text, start, end, new), entry


def if_continue_to_if_else(text: str, rng: random.Random):
    tree = _parse(text)
    offsets = line_offsets(text)
    sites = []
    for block in _blocks(tree):
        for idx, stmt in enumerate(block):
            if (
                isinstance(stmt, ast.If)
                and len(stmt.body) == 1
                and isinstance(stmt.body[0], ast.Continue)
                and not stmt.orelse
                and idx + 1 < len(block)
                and _own_line(text, offsets, stmt)
                and _own_line(text, offsets, block[idx + 1])
            ):
                sites.append((stmt, block[idx + 1 :]))
    stmt, rest = pick(sites, rng, "no if-continue followed by statements")
    indent = " " * stmt.col_offset
    rest_start = offsets[rest[0].lineno - 1]
    rest_end = _span(offsets, rest[-1])[1]
    rest_src = text[rest_start:rest_end]
    new = indent + "else:\n" + "\n".join(indent_lines(rest_src.split("\n"), INDENT))
    entry = _enclosing_function(tree, stmt)
    return splice(text, rest_start, rest_end, new), entry


# ---------------------------------------------------------------------------
# Loop methods
# ---------------------------------------------------------------------------

def for_while_transformation(text: str, rng: random.Random):
    tree = _parse(text)
    offsets = line_offsets(text)
    sites = [
        n
        for n in ast.walk(tree)
        if isinstance(n, ast.For)
        and not n.orelse
        and _own_line(text, offsets, n)
        and n.body[0].lineno > n.lineno
    ]
    node = pick(sites, rng, "no plain for loop")
    start, end = _span(offsets, node)
    indent = " " * node.col_offset
    it = fresh(_identifiers(text), rng, VAR_WORDS)
    target_src = ast.get_source_segment(text, node.target)
    iter_src = ast.get_source_segment(text, node.iter)
    body_start = offsets[node.body[0].lineno - 1]
    # The for body already sits one level below the header, which is
    # exactly the while-body depth; no re-indentation needed.
    body_src = text[body_start:end].rstrip("\n")
    new = (
        f"{it} = iter({iter_src})\n"
        f"{indent}while True:\n"
        f"{indent}{INDENT}try:\n"
        f"{indent}{INDENT}{INDENT}{target_src} = next({it})\n"
        f"{indent}{INDENT}except StopIteration:\n"
        f"{indent}{INDENT}{INDENT}break\n" + body_src
    )
    entry = _enclosing_function(tree, node)
    return splice(text, start, end, new), entry


# ---------------------------------------------------------------------------
# Decomposition methods
# ---------------------------------------------------------------------------

def extract_if(text: str, rng: random.Random):
    tree = _parse(text)
    offsets = line_offsets(text)

    def usable(test: ast.expr) -> bool:
        for x in ast.walk(test):
            if isinstance(x, (ast.NamedExpr, ast.Await, ast.Yield, ast.YieldFrom, ast.ListComp,
                              ast.SetComp, ast.DictComp, ast.GeneratorExp, ast.Lambda)):
                return False
            if isinstance(x, ast.Name) and x.id == "super":
                return False
        return True

    sites = [
        n
        for n in ast.walk(tree)
        if isinstance(n, ast.If) and _starts_with(text, offsets, n, "if") and usable(n.test)
    ]
    node = pick(sites, rng, "no extractable if condition")
    free: list[str] = []
    for x in ast.walk(node.test):
        if isinstance(x, ast.Name) and isinstance(x.ctx, ast.Load) and x.id not in free:
            free.append(x.id)
    name = fresh(_identifiers(text), rng, PREDICATE_WORDS)
    test_src = ast.get_source_segment(text, node.test)
    params = ", ".join(free)
    helper = f"def {name}({params}):\n{INDENT}return {test_src}\n\n\n"
    # Insert the helper before the enclosing top-level statement.
    top = next(s for s in tree.body if s.lineno <= node.lineno <= s.end_lineno)
    top_line = top.lineno
    for deco in getattr(top, "decorator_list", []):
        top_line = min(top_line, deco.lineno)
    insert_at = offsets[top_line - 1]
    tstart, tend = _span(offsets, node.test)
    call = f"{name}({params})"
    text = splice(text, tstart, tend, call)
    text = text[:insert_at] + helper + text[insert_at:]
    entry = _enclosing_function(tree, node)
    return text, entry


RULES = {
    Language.PYTHON: {
        "function_rename": function_rename,
        "variables_rename": variables_rename,
        "insert_junk_loop": insert_junk_loop,
        "insert_variables": insert_variables,
        "insert_junk_function": insert_junk_function,
        "add_exception": add_exception,
        "statement_wrapping": statement_wrapping,
        "modify_operations": modify_operations,
        "equi_arithmetic_expression": equi_arithmetic_expression,
        "swap_boolean_expression": swap_boolean_expression,
        "equi_boolean_logic": equi_boolean_logic,
        "div_composed_if": div_composed_if,
        "div_if_else": div_if_else,
        "if_continue_to_if_else": if_continue_to_if_else,
        "for_while_transformation": for_while_transformation,
        "extract_if": extract_if,
    }
}
