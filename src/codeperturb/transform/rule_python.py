"""Deterministic rule-based transformations for Python sources.

Each rule takes a parsed _Module and the seeded RNG, draws one applicable
site with shared.pick (NotApplicable when there is none) and returns
(new_text, entry_point); RULES wraps each as rewrite(text, rng). A rule
splices a minimal text edit so the rest of the file (comments, formatting)
is untouched. _Module reads only the shared parsed view of its text
(analysis.python_view), so a text the optimizer keeps is not parsed again
for its next rewrite, and no rule lexes it: renames splice at the tree's
name positions, f-strings included. Rules scan the view's `nodes` instead
of walking the tree, and `functions`, `params` and `names` come from that
one walk, so no rule walks the whole module once per function.
"""

from __future__ import annotations

import ast
import random
import re
from collections import defaultdict
from functools import cached_property

from ..analysis import PYTHON_LINE_END, python_view
from ..errors import NotApplicable, ParseError
from ..core import Language
from .shared import (
    FN_WORDS, PREDICATE_WORDS, VAR_WORDS, fresh, indent_lines, pick, replace_tokens, rule_table, splice,
)

INDENT = "    "  # the indentation unit of a module without an indented block

_DEFINED_NAME = re.compile(r"(?:async\s+)?(?:def|class)\s+")  # what precedes a def's or class's name
_HANDLER_NAME = re.compile(r"[\s)]*as\s+")  # what follows an except clause's type, before its name
_SELF_DOCUMENTING = re.compile(r"\s*=(?!=)")  # f"{x=}" prints the source text of x


class _Module:
    """One Python source as the rules read it during one rewrite.

    `text`, `tree`, `offsets`, `nodes`, `functions` and `span` come from
    the text's analysis.PythonView; `functions` holds every def in ast.walk
    order, the order in which enclosing_function breaks ties.
    """

    def __init__(self, text: str):
        try:
            view = python_view(text)
        except SyntaxError as exc:
            raise ParseError(f"cannot parse python source: {exc}") from exc
        self.text, self.tree, self.offsets = view.text, view.tree, view.offsets
        self.nodes, self.functions, self.span = view.nodes, view.functions, view.span

    @cached_property
    def params(self) -> frozenset[str]:
        """The parameter names of every function in the module."""
        names = set()
        for fn in self.functions:
            a = fn.args
            names.update(arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs)
            names.update(arg.arg for arg in (a.vararg, a.kwarg) if arg)
        return frozenset(names)

    @cached_property
    def names(self) -> dict[str, list[int | None]]:
        """Each name to the start offsets of its occurrences: every ast.Name
        and ast.arg, def or class name and except-handler name. None marks
        one a rename cannot reach: a binding without a node of its own
        (global, nonlocal, import, match capture), a name f"{x=}" prints and
        an ast.Name whose span is not the name's length."""
        names = defaultdict(list)

        def after(pattern: re.Pattern, pos: int, name: str) -> None:
            found = pattern.match(self.text, pos)
            names[name].append(found.end() if found else None)

        for node in self.nodes:
            fixed = ()
            if isinstance(node, ast.Name):
                start, end = self.span(node)
                names[node.id].append(start if end - start == len(node.id) else None)
            elif isinstance(node, ast.arg):
                names[node.arg].append(self.span(node)[0])
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                after(_DEFINED_NAME, self.span(node)[0], node.name)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                after(_HANDLER_NAME, self.span(node.type)[1], node.name)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                fixed = node.names
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                fixed = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
            elif isinstance(node, (ast.MatchAs, ast.MatchStar, ast.MatchMapping)):
                fixed = [node.rest if isinstance(node, ast.MatchMapping) else node.name]
            elif isinstance(node, ast.FormattedValue) and _SELF_DOCUMENTING.match(self.text, self.span(node.value)[1]):
                fixed = [n.id for n in ast.walk(node.value) if isinstance(n, ast.Name)]
            for name in filter(None, fixed):
                names[name].append(None)
        return dict(names)

    @cached_property
    def unit(self) -> str:
        """One indentation level: that of the first block statement on its
        own line, less its header's; INDENT when there is none."""
        for node in self.nodes:
            body = getattr(node, "body", None)
            if isinstance(node, (ast.stmt, ast.excepthandler)) and isinstance(body, list) and self.own_line(body[0]):
                return self.indent(body[0])[len(self.indent(node)) :]
        return INDENT

    @cached_property
    def multiline_strings(self) -> list[tuple[int, int]]:
        """The first and last lines of every str, bytes or f-string literal
        that spans lines."""
        return [
            (n.lineno, n.end_lineno)
            for n in self.nodes
            if (isinstance(n, ast.JoinedStr) or isinstance(n, ast.Constant) and isinstance(n.value, (str, bytes)))
            and n.end_lineno > n.lineno
        ]

    def reindentable(self, *stmts: ast.stmt) -> bool:
        """No string literal in the statements spans lines: re-indenting
        their lines would change its value."""
        return not any(
            s.lineno <= first and last <= s.end_lineno for s in stmts for first, last in self.multiline_strings
        )

    def source(self, node: ast.AST) -> str:
        start, end = self.span(node)
        return self.text[start:end]

    def indent(self, node: ast.stmt) -> str:
        """The text of the statement's line before the statement."""
        return self.text[self.offsets[node.lineno - 1] : self.span(node)[0]]

    def own_line(self, node: ast.stmt) -> bool:
        """The statement starts its line (nothing but whitespace before it)."""
        return self.indent(node).strip() == ""

    def ends_line(self, node: ast.stmt) -> bool:
        """Nothing but a comment follows the statement on its last line, so
        no `; statement` is carried along when its lines are moved."""
        rest = self.text[self.span(node)[1] : self.offsets[node.end_lineno]].strip()
        return not rest or rest.startswith("#")

    def starts_with(self, node: ast.stmt, word: str) -> bool:
        return self.text.startswith(word, self.span(node)[0])

    def identifiers(self) -> set[str]:
        """A new set on each call, since shared.fresh adds to it."""
        return set(self.names)

    def enclosing_function(self, node: ast.AST) -> str:
        best = None
        for fn in self.functions:
            if fn.lineno <= node.lineno and node.end_lineno <= fn.end_lineno:
                if best is None or fn.lineno >= best.lineno:
                    best = fn
        return best.name if best is not None else "<module>"

    def rename(self, renames: dict[str, str], start: int = 0, end: int | None = None) -> str:
        """Rename the occurrences within [start, end) by the {old: new} map, in
        one pass. Raises NotApplicable, renaming nothing, when an occurrence
        of an old name anywhere in the module has no offset or one where the
        text does not read as the name (f-string positions before Python
        3.12)."""
        end = len(self.text) if end is None else end
        hits = []
        for old in renames:
            for at in self.names.get(old, ()):
                if at is None or not self.text.startswith(old, at):
                    raise NotApplicable(f"cannot rename every occurrence of {old!r}")
                if start <= at and at + len(old) <= end:
                    hits.append((at, at + len(old), old))
        return replace_tokens(self.text, sorted(hits), renames, "no occurrences of {!r} to rename")


def _is_docstring(parent_body: list[ast.stmt], node: ast.stmt) -> bool:
    return (
        parent_body
        and parent_body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _indented(text: str, prefix: str) -> str:
    """`prefix` before every line of `text` that is not blank; lines end
    where ast ends them, and keep their own ends."""
    parts = PYTHON_LINE_END.split(text)
    parts[::2] = indent_lines(parts[::2], prefix)
    return "".join(parts)


def _blocks(m: _Module):
    """Yield every statement list in the module (module body, function
    bodies, branch bodies, ...)."""
    yield m.tree.body
    for node in m.nodes:
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
                yield block
        for handler in getattr(node, "handlers", []):
            yield handler.body


# ---------------------------------------------------------------------------
# Basic methods
# ---------------------------------------------------------------------------

def function_rename(m: _Module, rng: random.Random):
    # Methods share the attribute namespace, which a rename never reaches.
    hazards = set(m.params)
    for node in m.nodes:
        if isinstance(node, ast.Attribute):
            hazards.add(node.attr)
        elif isinstance(node, ast.ClassDef):
            hazards.add(node.name)
    candidates = [
        n.name
        for n in m.tree.body
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not n.name.startswith("__")
        and n.name not in hazards
        and None not in m.names[n.name]
    ]
    old = pick(sorted(candidates), rng, "no safely renameable module-level function")
    new = fresh(m.identifiers(), rng, FN_WORDS)
    return m.rename({old: new}), new


def _local_candidates(m: _Module, fn: ast.FunctionDef, outer: frozenset[str]) -> list[str]:
    """Names `fn`'s own scope assigns, less those unsafe to rename and the
    `outer` ones. The walk stops at a nested def, lambda or class, and no
    name in a nested class is renamed: the class's assignments make
    attributes."""
    assigned: set[str] = set()
    banned: set[str] = {"_", "self", "cls"}
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            assigned.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            assigned.add(node.name)
        elif isinstance(node, ast.ClassDef):
            banned.update(n.id for n in ast.walk(node) if isinstance(n, ast.Name))
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))
    return sorted(n for n in assigned - banned - outer if None not in m.names[n])


def variables_rename(m: _Module, rng: random.Random):
    outer = m.params | {
        n.name for n in m.tree.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    options = [(fn, _local_candidates(m, fn, outer)) for fn in m.functions]
    options = [(fn, names) for fn, names in options if names]
    fn, names = pick(options, rng, "no function with safely renameable locals")
    existing = m.identifiers()
    renames = {old: fresh(existing, rng, VAR_WORDS) for old in names}
    # From the body on: defaults and annotations read the enclosing scope.
    return m.rename(renames, m.span(fn.body[0])[0], m.span(fn)[1]), fn.name


def _insertion_sites(m: _Module, inside_functions: bool):
    """Statements that fill their lines: one can insert a new line before
    them or re-indent them into a new block."""
    sites = []
    fn_ranges = [(f.lineno, f.end_lineno) for f in m.functions]
    for block in _blocks(m):
        for stmt in block:
            if _is_docstring(block, stmt):
                continue
            if not (m.own_line(stmt) and m.ends_line(stmt)):
                continue
            if getattr(stmt, "decorator_list", None):
                continue
            # An elif shares source with its parent if; not a splice target.
            if isinstance(stmt, ast.If) and m.starts_with(stmt, "elif"):
                continue
            in_fn = any(lo <= stmt.lineno <= hi for lo, hi in fn_ranges)
            if inside_functions and not in_fn:
                continue
            sites.append(stmt)
    return sites


def _insert_before(m: _Module, stmt: ast.stmt, new_lines: list[str]) -> str:
    indent = m.indent(stmt)
    pos = m.offsets[stmt.lineno - 1]
    chunk = "".join(indent + ln + "\n" for ln in new_lines)
    return m.text[:pos] + chunk + m.text[pos:]


def insert_junk_loop(m: _Module, rng: random.Random):
    stmt = pick(_insertion_sites(m, inside_functions=True), rng, "no statement to anchor a junk loop")
    v = fresh(m.identifiers(), rng, VAR_WORDS)
    template = rng.choice(
        [
            [f"for {v} in range(0):", f"{m.unit}pass"],
            ["while False:", f"{m.unit}{v} = 0"],
            [f"for {v} in []:", f"{m.unit}break"],
        ]
    )
    return _insert_before(m, stmt, template), m.enclosing_function(stmt)


def insert_variables(m: _Module, rng: random.Random):
    stmt = pick(_insertion_sites(m, inside_functions=True), rng, "no statement to anchor an unused variable")
    v = fresh(m.identifiers(), rng, VAR_WORDS)
    value = rng.choice(["0", "1", "-1", "0.0", "''", "[]", "None"])
    return _insert_before(m, stmt, [f"{v} = {value}"]), m.enclosing_function(stmt)


def insert_junk_function(m: _Module, rng: random.Random):
    name = fresh(m.identifiers(), rng, FN_WORDS)
    k = rng.randrange(2, 40)
    chunk = f"\n\ndef {name}():\n{m.unit}return {k}\n"
    if not m.text.endswith("\n"):
        chunk = "\n" + chunk
    return m.text + chunk, name


def add_exception(m: _Module, rng: random.Random):
    sites = [
        s
        for s in _insertion_sites(m, inside_functions=True)
        if not isinstance(s, (ast.Try, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and m.reindentable(s)
    ]
    stmt = pick(sites, rng, "no statement to wrap in a handler")
    start, end = m.span(stmt)
    indent = m.indent(stmt)
    body = _indented(m.text[start:end], m.unit)
    new = f"try:\n{indent}{body}\n{indent}except Exception:\n{indent}{m.unit}raise"
    return splice(m.text, start, end, new), m.enclosing_function(stmt)


def statement_wrapping(m: _Module, rng: random.Random):
    sites = [s for s in _insertion_sites(m, inside_functions=False) if m.reindentable(s)]
    stmt = pick(sites, rng, "no wrappable statement")
    has_jump = any(isinstance(n, (ast.Break, ast.Continue)) for n in ast.walk(stmt))
    use_for = not has_jump and rng.random() < 0.5
    start, end = m.span(stmt)
    indent = m.indent(stmt)
    body = _indented(m.text[start:end], m.unit)
    if use_for:
        v = fresh(m.identifiers(), rng, VAR_WORDS)
        header = f"for {v} in range(1):"
    else:
        header = "if True:"
    new = f"{header}\n{indent}{body}"
    return splice(m.text, start, end, new), m.enclosing_function(stmt)


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


def modify_operations(m: _Module, rng: random.Random):
    sites = [
        n
        for n in m.nodes
        if isinstance(n, ast.AugAssign) and _pure_target(n.target) and type(n.op) in _AUG_OPS
    ]
    node = pick(sites, rng, "no compound assignment")
    start, end = m.span(node)
    target_src = m.source(node.target)
    value_src = m.source(node.value)
    op = _AUG_OPS[type(node.op)]
    if not isinstance(node.value, (ast.Name, ast.Constant)):
        value_src = f"({value_src})"
    new = f"{target_src} = {target_src} {op} {value_src}"
    return splice(m.text, start, end, new), m.enclosing_function(node)


def _int_literal_sites(m: _Module):
    skip_spans: list[tuple[int, int]] = []
    ints = []
    for node in m.nodes:
        if isinstance(node, ast.Constant) and type(node.value) is int and 2 <= node.value <= 10**9:
            ints.append(node)
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
    return [n for n in ints if not any(lo <= n.lineno <= hi for lo, hi in skip_spans)]


def equi_arithmetic_expression(m: _Module, rng: random.Random):
    node = pick(_int_literal_sites(m), rng, "no integer literal to decompose")
    start, end = m.span(node)
    k = rng.randrange(1, min(node.value - 1, 9) + 1)
    new = f"({node.value - k} + {k})"
    return splice(m.text, start, end, new), m.enclosing_function(node)


# ---------------------------------------------------------------------------
# Logic methods
# ---------------------------------------------------------------------------

_MIRROR = {ast.Lt: ">", ast.Gt: "<", ast.LtE: ">=", ast.GtE: "<=", ast.Eq: "==", ast.NotEq: "!="}

_PURE_BIN_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod)


def _side_effect_free(node: ast.expr) -> bool:
    # A loop, not recursion: an operand may nest deeper than the recursion limit.
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Attribute):
            stack.append(node.value)
        elif isinstance(node, ast.Subscript):
            stack += (node.value, node.slice)
        elif isinstance(node, ast.UnaryOp):
            stack.append(node.operand)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, _PURE_BIN_OPS):
            stack += (node.left, node.right)
        elif isinstance(node, ast.Tuple):
            stack += node.elts
        elif not isinstance(node, (ast.Name, ast.Constant)):
            return False
    return True


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


def swap_boolean_expression(m: _Module, rng: random.Random):
    sites = [
        n for n in m.nodes if isinstance(n, (ast.If, ast.While)) and _swappable_compares(n.test)
    ]
    node = pick(sites, rng, "no comparison with safely swappable operands")
    edits = []
    for cmp_node in _swappable_compares(node.test):
        start, end = m.span(cmp_node)
        left = m.source(cmp_node.left)
        right = m.source(cmp_node.comparators[0])
        op = _MIRROR[type(cmp_node.ops[0])]
        edits.append((start, end, f"{right} {op} {left}"))
    text = m.text
    for start, end, new in sorted(edits, reverse=True):
        text = splice(text, start, end, new)
    return text, m.enclosing_function(node)


def equi_boolean_logic(m: _Module, rng: random.Random):
    sites = [n for n in m.nodes if isinstance(n, (ast.If, ast.While))]
    sites = [
        n
        for n in sites
        if not any(isinstance(x, (ast.NamedExpr, ast.Await, ast.Yield, ast.YieldFrom)) for x in ast.walk(n.test))
    ]
    node = pick(sites, rng, "no condition to rewrite")
    start, end = m.span(node.test)
    test = node.test
    if isinstance(test, ast.BoolOp):
        parts = [f"not ({m.source(v)})" for v in test.values]
        joiner = " or " if isinstance(test.op, ast.And) else " and "
        new = f"not ({joiner.join(parts)})"
    else:
        new = f"not (not ({m.source(test)}))"
    return splice(m.text, start, end, new), m.enclosing_function(node)


# ---------------------------------------------------------------------------
# Condition methods
# ---------------------------------------------------------------------------

def div_composed_if(m: _Module, rng: random.Random):
    sites = [
        n
        for n in m.nodes
        if isinstance(n, ast.If)
        and isinstance(n.test, ast.BoolOp)
        and isinstance(n.test.op, ast.And)
        and not n.orelse
        and m.starts_with(n, "if")
        and n.body[0].lineno > n.lineno
        and n.test.lineno == n.test.end_lineno
        and not any(isinstance(x, ast.NamedExpr) for x in ast.walk(n.test))
        and m.reindentable(n)
    ]
    node = pick(sites, rng, "no composed if without else")
    start, end = m.span(node)
    indent = m.indent(node)
    conds = [m.source(v) for v in node.test.values]
    body_start = m.offsets[node.body[0].lineno - 1]
    body_src = m.text[body_start:end]
    depth = len(conds)
    # The splice point sits after the original indentation, so the first
    # header carries none; the nested ones need absolute indents.
    headers = [f"if {conds[0]}:"] + [
        indent + (m.unit * i) + f"if {c}:" for i, c in enumerate(conds[1:], start=1)
    ]
    new = "\n".join(headers + [_indented(body_src, m.unit * (depth - 1))])
    return splice(m.text, start, end, new), m.enclosing_function(node)


def div_if_else(m: _Module, rng: random.Random):
    sites = [
        n
        for n in m.nodes
        if isinstance(n, ast.If)
        and len(n.orelse) == 1
        and isinstance(n.orelse[0], ast.If)
        and m.starts_with(n.orelse[0], "elif")
        and m.reindentable(n.orelse[0])
    ]
    node = pick(sites, rng, "no elif chain")
    elif_node = node.orelse[0]
    start, end = m.span(elif_node)
    indent = m.indent(elif_node)
    segment = m.text[start:end]
    assert segment.startswith("elif")
    segment = "if" + segment[len("elif") :]
    new = f"else:\n{indent}" + _indented(segment, m.unit)
    return splice(m.text, start, end, new), m.enclosing_function(node)


def if_continue_to_if_else(m: _Module, rng: random.Random):
    sites = []
    for block in _blocks(m):
        for idx, stmt in enumerate(block):
            if (
                isinstance(stmt, ast.If)
                and len(stmt.body) == 1
                and isinstance(stmt.body[0], ast.Continue)
                and not stmt.orelse
                and idx + 1 < len(block)
                and m.own_line(stmt)
                and m.own_line(block[idx + 1])
                and m.reindentable(*block[idx + 1 :])
            ):
                sites.append((stmt, block[idx + 1 :]))
    stmt, rest = pick(sites, rng, "no if-continue followed by statements")
    indent = m.indent(stmt)
    rest_start = m.offsets[rest[0].lineno - 1]
    rest_end = m.span(rest[-1])[1]
    rest_src = m.text[rest_start:rest_end]
    new = indent + "else:\n" + _indented(rest_src, m.unit)
    return splice(m.text, rest_start, rest_end, new), m.enclosing_function(stmt)


# ---------------------------------------------------------------------------
# Loop methods
# ---------------------------------------------------------------------------

def for_while_transformation(m: _Module, rng: random.Random):
    sites = [
        n
        for n in m.nodes
        if isinstance(n, ast.For)
        and not n.orelse
        and m.own_line(n)
        and n.body[0].lineno > n.lineno
    ]
    node = pick(sites, rng, "no plain for loop")
    start, end = m.span(node)
    indent = m.indent(node)
    it = fresh(m.identifiers(), rng, VAR_WORDS)
    target_src = m.source(node.target)
    iter_src = m.source(node.iter)
    body_start = m.offsets[node.body[0].lineno - 1]
    # The for body already sits one level below the header, which is
    # exactly the while-body depth; no re-indentation needed.
    body_src = m.text[body_start:end].rstrip("\n")
    new = (
        f"{it} = iter({iter_src})\n"
        f"{indent}while True:\n"
        f"{indent}{m.unit}try:\n"
        f"{indent}{m.unit}{m.unit}{target_src} = next({it})\n"
        f"{indent}{m.unit}except StopIteration:\n"
        f"{indent}{m.unit}{m.unit}break\n" + body_src
    )
    return splice(m.text, start, end, new), m.enclosing_function(node)


# ---------------------------------------------------------------------------
# Decomposition methods
# ---------------------------------------------------------------------------

def extract_if(m: _Module, rng: random.Random):
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
        for n in m.nodes
        if isinstance(n, ast.If) and m.starts_with(n, "if") and usable(n.test)
    ]
    node = pick(sites, rng, "no extractable if condition")
    free: list[str] = []
    for x in ast.walk(node.test):
        if isinstance(x, ast.Name) and isinstance(x.ctx, ast.Load) and x.id not in free:
            free.append(x.id)
    name = fresh(m.identifiers(), rng, PREDICATE_WORDS)
    test_src = m.source(node.test)
    params = ", ".join(free)
    helper = f"def {name}({params}):\n{m.unit}return {test_src}\n\n\n"
    # Insert the helper before the enclosing top-level statement.
    top = next(s for s in m.tree.body if s.lineno <= node.lineno <= s.end_lineno)
    top_line = top.lineno
    for deco in getattr(top, "decorator_list", []):
        top_line = min(top_line, deco.lineno)
    insert_at = m.offsets[top_line - 1]
    tstart, tend = m.span(node.test)
    text = splice(m.text, tstart, tend, f"{name}({params})")
    return text[:insert_at] + helper + text[insert_at:], m.enclosing_function(node)


RULES = {
    Language.PYTHON: rule_table(_Module, (
        function_rename,
        variables_rename,
        insert_junk_loop,
        insert_variables,
        insert_junk_function,
        add_exception,
        statement_wrapping,
        modify_operations,
        equi_arithmetic_expression,
        swap_boolean_expression,
        equi_boolean_logic,
        div_composed_if,
        div_if_else,
        if_continue_to_if_else,
        for_while_transformation,
        extract_if,
    ))
}
