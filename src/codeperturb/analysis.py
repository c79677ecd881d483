"""Lightweight structural analysis shared by the transform and bench modules.

Function discovery works from the AST for Python and from token scanning
with brace matching for the brace languages. Line numbers are 0-based.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from .core import Language
from .errors import ParseError
from .lexing import Token, TokenKind, lex


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
    for i, c in enumerate(text):
        if c == "\n":
            offsets.append(i + 1)
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


def _python_functions(text: str) -> list[FunctionSpan]:
    try:
        tree = ast.parse(text)
    except SyntaxError as exc:
        raise ParseError(f"cannot parse: {exc}") from exc
    spans: list[FunctionSpan] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            spans.append(
                FunctionSpan(
                    name=node.name,
                    start_line=node.lineno - 1,
                    end_line=node.end_lineno - 1,
                    body_start_line=node.body[0].lineno - 1,
                    body_end_line=node.end_lineno - 1,
                )
            )
    spans.sort(key=lambda s: s.start_line)
    return spans


def _brace_functions(text: str, language: Language) -> list[FunctionSpan]:
    tokens = lex(text, language)
    offsets = line_offsets(text)
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
                name, open_idx, close_idx = found
                start_line = line_of_offset(offsets, t.start)
                open_line = line_of_offset(offsets, tokens[open_idx].start)
                close_line = line_of_offset(offsets, tokens[close_idx].start)
                spans.append(
                    FunctionSpan(
                        name=name,
                        start_line=start_line,
                        end_line=close_line,
                        body_start_line=open_line + 1,
                        body_end_line=max(open_line, close_line - 1),
                    )
                )
                i = close_idx + 1
                continue
        i += 1
    return spans


def _go_function(tokens: list[Token], i: int):
    """Parse 'func [receiver] Name(...) ... {' starting at the func keyword."""
    j = i + 1
    if j < len(tokens) and tokens[j].text == "(":  # method receiver
        j = match_brace(tokens, j) + 1
    if j >= len(tokens) or tokens[j].kind is not TokenKind.IDENT:
        return None  # func literal
    name = tokens[j].text
    j += 1
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


def find_functions(text: str, language: Language) -> list[FunctionSpan]:
    """Named function definitions with their line extents."""
    if language is Language.PYTHON:
        return _python_functions(text)
    if language in (Language.GO, Language.C_CPP):
        return _brace_functions(text, language)
    # Best effort for Rust/Java: fn/method headers followed by a brace body.
    tokens = lex(text, language)
    offsets = line_offsets(text)
    spans = []
    for k, t in enumerate(tokens[:-2]):
        header = (
            language is Language.RUST_LANG and t.text == "fn" and tokens[k + 1].kind is TokenKind.IDENT
        )
        if header:
            name = tokens[k + 1].text
            j = k + 2
            while j < len(tokens) and tokens[j].text not in ("{", ";"):
                if tokens[j].text in "([":
                    j = match_brace(tokens, j) + 1
                    continue
                j += 1
            if j < len(tokens) and tokens[j].text == "{":
                close = match_brace(tokens, j)
                open_line = line_of_offset(offsets, tokens[j].start)
                close_line = line_of_offset(offsets, tokens[close].start)
                spans.append(
                    FunctionSpan(
                        name=name,
                        start_line=line_of_offset(offsets, t.start),
                        end_line=close_line,
                        body_start_line=open_line + 1,
                        body_end_line=max(open_line, close_line - 1),
                    )
                )
    return spans


def has_main_function(text: str, language: Language) -> bool:
    """Whether a program entry point is present (brace languages only)."""
    if language is Language.PYTHON:
        return True
    try:
        names = {f.name for f in find_functions(text, language)}
    except ParseError:
        return False
    return "main" in names
