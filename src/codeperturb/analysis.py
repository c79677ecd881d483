"""Lightweight structural analysis shared by the transform and bench modules.

Function discovery works from the AST for Python and from token scanning
with brace matching for the brace languages; brace_functions reads a token
stream its caller already has. A Go function's name may be followed by a
type-parameter list (`func Map[T any](xs []T) []T`), and a Go method's
span starts at `func (receiver)`. Line numbers are 0-based.

A Python text is parsed once into a PythonView, which python_view keeps in
a cache of PYTHON_VIEWS entries: the rule that rewrites a text, the syntax
stage of verification and the optimizer's function lookup all read the
same view of a candidate. The cache keeps a text's SyntaxError as well, so
a text that does not parse is parsed once, not once per rule that tries
it. A candidate is one local rewrite of a kept text, so its view is built
from the kept view nearest to it: only the top-level statements its edit
touched are parsed again, and the syntax stage compiles only those (the
re-scan of the damaged region, as similarity.tokenize does for the lexer).
The view falls back to a full parse, and the syntax stage to a full
compile, wherever that could give another result (see PythonView). A
PythonView ends lines where ast does, at "\r\n", "\r" and "\n";
line_offsets, which the brace languages read, ends them at "\n" only.
"""

from __future__ import annotations

import ast
import functools
import math
import re
from bisect import bisect_right
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass

from .core import Language
from .errors import ParseError
from .lexing import Token, TokenKind, common_affixes, lex


@dataclass(frozen=True)
class FunctionSpan:
    name: str
    start_line: int
    end_line: int
    body_start_line: int
    body_end_line: int


def line_offsets(text: str) -> list[int]:
    """Char offset of each line start, plus a final sentinel at len(text)."""
    offsets = [0]
    i = text.find("\n")
    while i >= 0:
        offsets.append(i + 1)
        i = text.find("\n", i + 1)
    offsets.append(len(text))
    return offsets


def line_of_offset(offsets: list[int], pos: int) -> int:
    lo, hi = 0, len(offsets) - 1
    while lo < hi - 1:
        mid = (lo + hi) // 2
        if offsets[mid] <= pos:
            lo = mid
        else:
            hi = mid
    return lo


def match_brace(tokens: list[Token], open_idx: int) -> int:
    """Index of the brace token matching tokens[open_idx]."""
    opener = tokens[open_idx].text
    closer = {"{": "}", "(": ")", "[": "]"}[opener]
    depth = 0
    for k in range(open_idx, len(tokens)):
        t = tokens[k]
        if t.kind is TokenKind.OP:
            if t.text == opener:
                depth += 1
            elif t.text == closer:
                depth -= 1
                if depth == 0:
                    return k
    raise ParseError(f"unmatched {opener!r} at offset {tokens[open_idx].start}")


PYTHON_VIEWS = 2  # views python_view keeps; each holds a whole syntax tree


# Where ast ends a line. One group, so that re.split keeps the line ends.
PYTHON_LINE_END = re.compile(r"(\r\n?|\n)")

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _levels(root: ast.AST) -> list[list[ast.AST]]:
    """Every node under root, root first, in ast.walk order, cut into one
    list per depth: ast.walk is breadth first, each node's children in
    field order."""
    levels = []
    level = [root]
    while level:
        levels.append(level)
        level = []
        append = level.append
        for node in levels[-1]:
            for name in node._fields:
                field = getattr(node, name, None)
                if isinstance(field, list):
                    for item in field:
                        if isinstance(item, ast.AST):
                            append(item)
                elif isinstance(field, ast.AST):
                    append(field)
    return levels


def _module_scope_global(stmts: list[ast.stmt]) -> bool:
    """Whether a global statement stands among stmts outside every def and
    class, where the compiler checks it against the whole module."""
    todo = list(stmts)
    while todo:
        stmt = todo.pop()
        if isinstance(stmt, ast.Global):
            return True
        if not isinstance(stmt, (*_DEFS, ast.ClassDef)):
            for name in ("body", "orelse", "finalbody", "handlers", "cases"):
                todo.extend(getattr(stmt, name, ()))
    return False


class PythonView:
    """One Python text, parsed once. Read-only once built, save for its
    compile verdict: it is shared through python_view's cache.

    `tree` is the module's syntax tree, `nodes` every node of it in
    ast.walk order, `functions` every def in that order and `offsets` the
    line starts, plus a final sentinel at len(text). Lines end where ast
    ends them: at "\r\n", "\r" and "\n". ast gives columns in UTF-8 bytes;
    `position` and `span` turn them into offsets into `text`, converting
    only on lines that are not ASCII. The constructor raises SyntaxError
    when the text does not parse, also when it nests too deeply for the
    parser (which raises RecursionError or MemoryError there).

    Given the views of other texts, the constructor builds from the one
    that shares the longest common prefix plus suffix with text: it
    parses only the run of whole top-level statements (decorators and the
    lines up to the next statement included) that covers the differing
    span, or that run and all after it when the edit changes the line
    count, and takes the other statements' nodes from the base. The run is
    parsed padded with blank lines, so that ast gives its positions in the
    whole text; the nodes of the result equal those of a full parse, and
    `nodes` merges the statements' breadth-first levels. `fresh` holds the
    statements parsed for this view. It parses the whole text instead
    when either text holds "__future__" (a future import changes how the
    rest parses and compiles), when the run does not parse, when a line
    end or a "\" continuation straddles its edges, and when it is more
    than half the text.

    `compiles` is the verdict of compile() on the tree once known: True,
    False or None. `base` is the view whose known-good verdict lets
    compiling `fresh` alone settle it (verify.syntax_check); None when the
    whole tree must be compiled: a full parse, a base that does not
    compile, a base that has a base of its own, or a global statement at
    module scope in either text, which the compiler checks against every
    statement. The verdict's first reader drops `base`, so no view keeps
    a chain of earlier views alive.
    """

    def __init__(self, text: str, others: Sequence[PythonView] = ()):
        self.text = text
        self.offsets = [0, *(m.end() for m in PYTHON_LINE_END.finditer(text)), len(text)]
        self.compiles: bool | None = None
        self.base: PythonView | None = None
        base = max(others, key=lambda view: sum(common_affixes(view.text, text)), default=None)
        if base is None or not self._rebuild(base):
            try:
                self.tree = ast.parse(text)
            except (RecursionError, MemoryError) as exc:  # the parser's own nesting limits
                raise SyntaxError(f"too deeply nested to parse ({type(exc).__name__})") from exc
            self.fresh = self.tree.body
            self._stmt_levels = [_levels(stmt) for stmt in self.fresh]
        self.nodes = [self.tree]
        for depth in range(max(map(len, self._stmt_levels), default=0)):
            for levels in self._stmt_levels:
                if depth < len(levels):
                    self.nodes += levels[depth]
        self._wide_lines = frozenset() if text.isascii() else frozenset(
            k for k in range(1, len(self.offsets)) if not text[self.offsets[k - 1] : self.offsets[k]].isascii()
        )

    @functools.cached_property
    def functions(self) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
        return [n for n in self.nodes if isinstance(n, _DEFS)]

    def _rebuild(self, base: PythonView) -> bool:
        """Set tree, fresh and the statements' levels from base and a parse
        of the edited run, as the class says; False where the whole text
        must be parsed."""
        text, old = self.text, base.text
        if "__future__" in text or "__future__" in old:
            return False
        head, tail = common_affixes(old, text)
        cuts = base._cuts
        start, line, first = cuts[bisect_right(cuts, (head, math.inf)) - 1]
        after = bisect_right(cuts, (len(old) - tail, math.inf))
        stop, end = (cuts[after][0], cuts[after][2]) if after < len(cuts) else (len(old), len(base.tree.body))
        if len(self.offsets) != len(base.offsets):
            stop, end = len(old), len(base.tree.body)
        stop += len(text) - len(old)
        run = text[start:stop]
        if (2 * len(run) > len(text) or old[start - 1 : start] == "\r" and run[:1] == "\n"
                or stop < len(text) and run.rstrip("\r\n").endswith("\\")):
            return False
        try:
            fresh = ast.parse("\n" * (line - 1) + run).body
        except (SyntaxError, ValueError, RecursionError, MemoryError):
            return False
        body = base.tree.body
        self.tree = ast.Module(body=[*body[:first], *fresh, *body[end:]], type_ignores=[])
        self.fresh = fresh
        self._stmt_levels = [*base._stmt_levels[:first], *map(_levels, fresh), *base._stmt_levels[end:]]
        if base.compiles is not False and base.base is None and not (
            "global" in text and _module_scope_global(self.tree.body)
            or "global" in old and _module_scope_global(body)
        ):
            self.base = base
        return True

    @functools.cached_property
    def _cuts(self) -> list[tuple[int, int, int]]:
        """(offset, line, statement index) of each line start where the
        module splits into two texts that parse apart into its statements:
        the text's start, and the first line (its first decorator's, if
        any) of each top-level statement whose previous statement ends on
        an earlier line, unless the line before it ends in a "\\"."""
        cuts = [(0, 1, 0)]
        body, text, offsets = self.tree.body, self.text, self.offsets
        for k in range(1, len(body)):
            stmt = body[k]
            decorators = getattr(stmt, "decorator_list", None)
            line = decorators[0].lineno if decorators else stmt.lineno
            start = offsets[line - 1]
            if body[k - 1].end_lineno < line and not text[offsets[line - 2] : start].rstrip("\r\n").endswith("\\"):
                cuts.append((start, line, k))
        return cuts

    def position(self, lineno: int, col_offset: int) -> int:
        """Offset in `text` of a (1-based line, UTF-8 byte column) pair."""
        start = self.offsets[lineno - 1]
        if lineno in self._wide_lines:
            line = self.text[start : self.offsets[lineno]]
            col_offset = len(line.encode()[:col_offset].decode())
        return start + col_offset

    def span(self, node: ast.AST) -> tuple[int, int]:
        """The [start, end) offsets of a node's source in `text`."""
        return (self.position(node.lineno, node.col_offset),
                self.position(node.end_lineno, node.end_col_offset))


_views: OrderedDict[str, PythonView | SyntaxError] = OrderedDict()  # most recently used last


def python_view(text: str) -> PythonView:
    """The parsed view of a Python text. The last PYTHON_VIEWS texts are
    kept with their views, or with the SyntaxError of a text that does not
    parse, which every call raises afresh; a new text's view builds from
    the kept views (see PythonView)."""
    view = _views.get(text)
    if view is None:
        try:
            view = PythonView(text, [v for v in _views.values() if isinstance(v, PythonView)])
        except SyntaxError as exc:
            view = exc.with_traceback(None)
        _views[text] = view
        if len(_views) > PYTHON_VIEWS:
            _views.popitem(last=False)
    else:
        _views.move_to_end(text)
    if isinstance(view, SyntaxError):
        raise view.with_traceback(None)
    return view


def _python_functions(text: str) -> list[FunctionSpan]:
    try:
        view = python_view(text)
    except SyntaxError as exc:
        raise ParseError(f"cannot parse: {exc}") from exc
    spans = [
        FunctionSpan(
            name=node.name,
            start_line=node.lineno - 1,
            end_line=node.end_lineno - 1,
            body_start_line=node.body[0].lineno - 1,
            body_end_line=node.end_lineno - 1,
        )
        for node in view.functions
    ]
    spans.sort(key=lambda s: s.start_line)
    return spans


def _span(tokens: list[Token], offsets: list[int], start: int, name: str, open_idx: int,
          close_idx: int) -> FunctionSpan:
    """The span of a function whose header starts at offset `start` and
    whose body is tokens[open_idx] through the brace tokens[close_idx]."""
    open_line = line_of_offset(offsets, tokens[open_idx].start)
    close_line = line_of_offset(offsets, tokens[close_idx].start)
    return FunctionSpan(
        name, line_of_offset(offsets, start), close_line, open_line + 1, max(open_line, close_line - 1)
    )


def brace_functions(tokens: list[Token], offsets: list[int], language: Language) -> list[FunctionSpan]:
    """The functions of a brace-language text, from its tokens and its
    line_offsets: those at file scope in Go and C, every `fn` with a body
    in Rust (best effort), none in Java."""
    if language is Language.RUST_LANG:
        return _rust_functions(tokens, offsets)
    spans: list[FunctionSpan] = []
    depth = 0
    i = 0
    while i < len(tokens):
        t = tokens[i]
        if t.kind is TokenKind.OP and t.text in "{}":
            depth += 1 if t.text == "{" else -1
            i += 1
            continue
        if depth == 0:
            found = None
            if language is Language.GO and t.kind is TokenKind.KEYWORD and t.text == "func":
                found = _go_function(tokens, i)
            elif language is Language.C_CPP and t.kind is TokenKind.IDENT:
                found = _c_function(tokens, i)
            if found is not None:
                spans.append(_span(tokens, offsets, t.start, *found))
                i = found[2] + 1
                continue
        i += 1
    return spans


def _go_function(tokens: list[Token], i: int):
    """Parse 'func [receiver] Name[type parameters](...) ... {' starting at
    the func keyword."""
    j = i + 1
    if j < len(tokens) and tokens[j].text == "(":  # method receiver
        j = match_brace(tokens, j) + 1
    if j >= len(tokens) or tokens[j].kind is not TokenKind.IDENT:
        return None  # func literal
    name = tokens[j].text
    j += 1
    if j < len(tokens) and tokens[j].text == "[":
        j = match_brace(tokens, j) + 1
    if j >= len(tokens) or tokens[j].text != "(":
        return None
    j = match_brace(tokens, j) + 1
    # Skip return types and such up to the opening brace of the body.
    while j < len(tokens) and tokens[j].text != "{":
        if tokens[j].text in (";", "}"):
            return None
        if tokens[j].text in "([":
            j = match_brace(tokens, j) + 1
            continue
        j += 1
    if j >= len(tokens):
        return None
    return name, j, match_brace(tokens, j)


def _c_function(tokens: list[Token], i: int):
    """Detect 'name(...) {' at file scope; tokens[i] must be the name."""
    j = i + 1
    if j >= len(tokens) or tokens[j].text != "(":
        return None
    j = match_brace(tokens, j) + 1
    while j < len(tokens) and tokens[j].kind is TokenKind.KEYWORD and tokens[j].text in ("const", "noexcept"):
        j += 1
    if j >= len(tokens) or tokens[j].text != "{":
        return None
    return tokens[i].text, j, match_brace(tokens, j)


def _rust_functions(tokens: list[Token], offsets: list[int]) -> list[FunctionSpan]:
    """Every 'fn name ... {', nested ones included."""
    spans = []
    for k, t in enumerate(tokens[:-2]):
        if t.text == "fn" and tokens[k + 1].kind is TokenKind.IDENT:
            j = k + 2
            while j < len(tokens) and tokens[j].text not in ("{", ";"):
                if tokens[j].text in "([":
                    j = match_brace(tokens, j) + 1
                    continue
                j += 1
            if j < len(tokens) and tokens[j].text == "{":
                spans.append(_span(tokens, offsets, t.start, tokens[k + 1].text, j, match_brace(tokens, j)))
    return spans


def find_functions(text: str, language: Language) -> list[FunctionSpan]:
    """Named function definitions with their line extents."""
    if language is Language.PYTHON:
        return _python_functions(text)
    return brace_functions(lex(text, language), line_offsets(text), language)
