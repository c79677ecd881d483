"""A small multi-language lexer.

Produces raw token streams with source spans for the five language modes.
``scan`` is the one lexer loop: it yields (kind, start, end) from a lexer
position, and ``lex`` builds Tokens from it. Each language has one
alternation, compiled on first use, that ``scan`` matches at every
position. Its groups, in order: ``skip`` (whitespace and comments); one
group per row of the language's literal table in ``_SYNTAX`` (a pattern
and its TokenKind); ``open``, the opener of a literal or block comment
whose whole pattern did not match, which raises LexError at the quote (at
the start for a Rust raw string or a block comment); ``num``; identifiers
and keywords; operators, ``_MULTI_OPS`` in list order, else any single
character. Three scanners stay functions: ``_scan_number``, whose
``isdigit`` and ``isalpha`` tests have no exact ``re`` class, and Rust's
``_scan_rust_quote`` (char literal or lifetime) and ``_block_comment_end``
(nested block comments).

A lexer step, from one position to the next, depends on nothing but the
text and its position. Two facts about a step let a caller re-lex only the
edited part of a text (``similarity.tokenize`` does, through
``reuse_bound``):

- a step reads nothing before its position;
- a step that returns a token ending at e reads nothing past e + 2, save
  one: Rust's ``r`` before a run of ``#`` reads through the run and the
  character after it, which may open a raw string.

``common_affixes`` finds where two texts differ; ``similarity.tokenize``
and ``analysis.python_view`` both pick the kept text to reuse by it.

Spans are (start, end) offsets into the text string.
"""

from __future__ import annotations

import functools
import keyword
import re
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum

from .core import Language
from .errors import LexError


class TokenKind(Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    INT = "int"
    FLOAT = "float"
    STRING = "string"
    CHAR = "char"
    LIFETIME = "lifetime"
    OP = "op"


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    start: int
    end: int


_GO_KEYWORDS = frozenset(
    "break case chan const continue default defer else fallthrough for func go goto "
    "if import interface map package range return select struct switch type var".split()
)

_C_CPP_KEYWORDS = frozenset(
    "auto break case char class const constexpr continue default delete do double else "
    "enum explicit extern false float for friend goto if inline int long mutable namespace "
    "new noexcept nullptr operator private protected public register return short signed "
    "sizeof static struct switch template this throw true try typedef typename union "
    "unsigned using virtual void volatile wchar_t while bool catch decltype static_assert".split()
)

_RUST_KEYWORDS = frozenset(
    "as async await break const continue crate dyn else enum extern false fn for if impl "
    "in let loop match mod move mut pub ref return self Self static struct super trait "
    "true type unsafe use where while".split()
)

_JAVA_KEYWORDS = frozenset(
    "abstract assert boolean break byte case catch char class const continue default do "
    "double else enum extends final finally float for goto if implements import instanceof "
    "int interface long native new package private protected public return short static "
    "strictfp super switch synchronized this throw throws transient try void volatile "
    "while true false null".split()
)

KEYWORDS: dict[Language, frozenset[str]] = {
    Language.PYTHON: frozenset(keyword.kwlist),
    Language.GO: _GO_KEYWORDS,
    Language.C_CPP: _C_CPP_KEYWORDS,
    Language.RUST_LANG: _RUST_KEYWORDS,
    Language.JAVA: _JAVA_KEYWORDS,
}

# Multi-character operators, longest first. Matching single characters is the
# fallback, so this list only needs the glyph runs that must stay together.
_MULTI_OPS = [
    "<<=", ">>=", "**=", "//=", "...", "..=", "<=>", ">>>", "->*",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "+=", "-=", "*=", "/=",
    "%=", "&=", "|=", "^=", ":=", "->", "=>", "::", "++", "--", "**", "//",
    "..", "<-",
]

_IDENT_RE = re.compile(r"[^\W\d]\w*")
_COMMENT_MARK_RE = re.compile(r"/\*|\*/")

_PY_PREFIX = r"(?i:rb|br|rf|fr|[rbfu])?"
# A backslash escapes the next character, newline included. One-line
# literals stop at a newline. A quote that opens a triple quote does not open
# an empty string, hence the lookaheads where both are tried.
_DQ = r'"(?:\\.|[^\\\n"])*"'
_SQ = r"'(?:\\.|[^\\\n'])*'"
_DQ3 = r'"""(?:\\.|[^\\])*?"""'
_SQ3 = _DQ3.replace('"', "'")
_C_COMMENTS = r"//[^\n]*|/\*.*?\*/"

# Per language: the comments to skip, the literal table of (pattern, kind),
# and the openers of those literals and of block comments. A Python comment
# ends where ast ends a line, also at a lone "\r".
_SYNTAX: dict[Language, tuple[str, list[tuple[str, TokenKind]], str]] = {
    Language.PYTHON: (
        r"#[^\r\n]*",
        [(rf"{_PY_PREFIX}(?:{_SQ3}|{_DQ3}|(?!'''){_SQ}|(?!\"\"\"){_DQ})", TokenKind.STRING)],
        rf"{_PY_PREFIX}(?P<quote>'''|\"\"\"|['\"])",
    ),
    Language.GO: (
        _C_COMMENTS,
        [(r"`[^`]*`", TokenKind.STRING), (_DQ, TokenKind.STRING), (_SQ, TokenKind.CHAR)],
        r"""/\*|(?P<quote>[`"'])""",
    ),
    Language.C_CPP: (
        _C_COMMENTS, [(_DQ, TokenKind.STRING), (_SQ, TokenKind.CHAR)], r"""/\*|(?P<quote>["'])"""
    ),
    Language.JAVA: (
        _C_COMMENTS,
        [(_DQ3, TokenKind.STRING), (rf'(?!"""){_DQ}', TokenKind.STRING), (_SQ, TokenKind.CHAR)],
        r"""/\*|(?P<quote>\"\"\"|["'])""",
    ),
    Language.RUST_LANG: (  # a bare "/*" is skipped by _block_comment_end: they nest
        r"//[^\n]*|/\*",
        [(r'r(?P<hashes>#*)".*?"(?P=hashes)', TokenKind.STRING),
         (r'b?"(?:\\.|[^\\"])*"', TokenKind.STRING)],
        r'r#*"|b?(?P<quote>")',
    ),
}


@functools.cache
def _pattern(language: Language) -> tuple[re.Pattern, dict[str, TokenKind]]:
    """The language's alternation and the token kind of each literal group."""
    comments, literals, openers = _SYNTAX[language]
    groups = [rf"(?P<skip>\s+|{comments})"]
    groups += [f"(?P<lit{k}>{pattern})" for k, (pattern, _) in enumerate(literals)]
    groups.append(f"(?P<open>{openers})")
    if language is Language.RUST_LANG:
        groups.append(r"(?P<rquote>')")
    ops = "|".join(map(re.escape, _MULTI_OPS))
    groups += [r"(?P<num>\d)", f"(?P<word>{_IDENT_RE.pattern})", f"(?P<op>{ops}|.)"]
    kinds = {"op": TokenKind.OP} | {f"lit{k}": kind for k, (_, kind) in enumerate(literals)}
    return re.compile("|".join(groups), re.DOTALL), kinds


def _block_comment_end(text: str, pos: int) -> int:
    """pos points at the opening slash-star of a nesting (Rust) block comment.
    Returns offset one past the close."""
    depth = 1
    for m in _COMMENT_MARK_RE.finditer(text, pos + 2):
        depth += 1 if m[0] == "/*" else -1
        if depth == 0:
            return m.end()
    raise LexError("unterminated block comment", pos)


def _unterminated(m: re.Match) -> LexError:
    """The error for an opener whose literal or comment never closes."""
    if m["quote"] is not None:
        return LexError(f"unterminated {m['quote']!r} literal", m.start("quote"))
    what = "block comment" if m["open"] == "/*" else "raw string"
    return LexError(f"unterminated {what}", m.start())


def _scan_number(text: str, pos: int, language: Language) -> tuple[int, TokenKind]:
    n = len(text)
    i = pos
    kind = TokenKind.INT
    if text.startswith(("0x", "0X", "0b", "0B", "0o", "0O"), i) and i + 2 < n:
        i += 2
        while i < n and (text[i].isalnum() or text[i] == "_"):
            i += 1
        return i, TokenKind.INT
    while i < n and (text[i].isdigit() or text[i] == "_"):
        i += 1
    if i < n and text[i] == "." and i + 1 < n and text[i + 1].isdigit():
        kind = TokenKind.FLOAT
        i += 1
        while i < n and (text[i].isdigit() or text[i] == "_"):
            i += 1
    elif i < n and text[i] == "." and not text.startswith("..", i):
        # Trailing-dot float like "1." unless a method call follows (1.max()).
        if i + 1 >= n or not (text[i + 1].isalpha() or text[i + 1] == "_"):
            kind = TokenKind.FLOAT
            i += 1
    if i < n and text[i] in "eE" and (
        (i + 1 < n and text[i + 1].isdigit())
        or (i + 2 < n and text[i + 1] in "+-" and text[i + 2].isdigit())
    ):
        kind = TokenKind.FLOAT
        i += 1
        if text[i] in "+-":
            i += 1
        while i < n and text[i].isdigit():
            i += 1
    # Type/width suffixes: u64, f32, UL, j, ...
    suffix_start = i
    while i < n and (text[i].isalnum() or text[i] == "_"):
        i += 1
    suffix = text[suffix_start:i]
    if suffix and language in (Language.JAVA, Language.C_CPP) and suffix[0] in "fFdD":
        kind = TokenKind.FLOAT
    if suffix and language is Language.PYTHON and suffix in ("j", "J"):
        kind = TokenKind.FLOAT
    if suffix and language is Language.RUST_LANG and suffix.startswith("f"):
        kind = TokenKind.FLOAT
    return i, kind


def _scan_rust_quote(text: str, pos: int) -> tuple[int, TokenKind]:
    """Disambiguate Rust char literals from lifetimes. pos is at the quote."""
    n = len(text)
    i = pos + 1
    if i < n and text[i] == "\\":
        j = i + 2
        if i + 1 < n and text[i + 1] == "u" and j < n and text[j] == "{":
            close = text.find("}", j)
            if close == -1:
                raise LexError("unterminated char escape", pos)
            j = close + 1
        if j < n and text[j] == "'":
            return j + 1, TokenKind.CHAR
        raise LexError("unterminated char literal", pos)
    if i < n and i + 1 < n and text[i + 1] == "'" and text[i] != "'":
        return i + 2, TokenKind.CHAR
    m = _IDENT_RE.match(text, i)
    if m:
        return m.end(), TokenKind.LIFETIME
    raise LexError("stray quote", pos)


def scan(text: str, language: Language, pos: int = 0) -> Iterator[tuple[TokenKind, int, int]]:
    """Yield (kind, start, end) for each token of text from lexer position
    pos on. Raises LexError where a literal or block comment never closes."""
    pattern, kinds = _pattern(language)
    kw = KEYWORDS[language]
    match = pattern.match
    n = len(text)
    while pos < n:
        m = match(text, pos)
        group, end = m.lastgroup, m.end()
        if group == "skip":
            pos = _block_comment_end(text, pos) if m[0] == "/*" else end
            continue
        if group == "open":
            raise _unterminated(m)
        if group == "num":
            end, kind = _scan_number(text, pos, language)
        elif group == "rquote":
            end, kind = _scan_rust_quote(text, pos)
        elif group == "word":
            kind = TokenKind.KEYWORD if m[0] in kw else TokenKind.IDENT
        else:
            kind = kinds[group]
        yield kind, pos, end
        pos = end


def reuse_bound(text: str, head: int, language: Language) -> int:
    """An offset such that every token ending at or before it is lexed the
    same in any text that shares text's first head characters: head - 3,
    or less before a Rust ``r`` whose run of ``#`` reaches head."""
    bound = head - 3
    if language is Language.RUST_LANG:
        run = len(text[:head].rstrip("#"))
        if text[run - 1 : run] == "r":
            bound = min(bound, run - 1)
    return bound


def _longest(limit: int, agree) -> int:
    """The largest k <= limit with agree(k), where agree holds up to some k
    and fails above it."""
    lo, hi = 0, limit
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if agree(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def common_affixes(a: str, b: str) -> tuple[int, int]:
    """The lengths of the common prefix of a and b and of the common suffix
    of what follows it. Binary searches over slice comparisons, which run at
    memcmp speed."""
    head = _longest(min(len(a), len(b)), lambda k: a.startswith(b[:k]))
    return head, _longest(min(len(a), len(b)) - head, lambda k: a.endswith(b[len(b) - k :]))


def lex(text: str, language: Language) -> list[Token]:
    """Tokenize text for the given language mode."""
    return [Token(kind, text[start:end], start, end) for kind, start, end in scan(text, language)]


# The placeholder class of each kind that normalization collapses.
NORMAL_BY_KIND = {
    TokenKind.IDENT: "ID",
    TokenKind.LIFETIME: "ID",
    TokenKind.INT: "INT",
    TokenKind.FLOAT: "FLOAT",
    TokenKind.STRING: "STR",
    TokenKind.CHAR: "CHAR",
}


def check_balance(tokens: list[Token]) -> str | None:
    """Bracket balance over a token stream. Returns a diagnostic or None."""
    pairs = {")": "(", "]": "[", "}": "{"}
    stack: list[Token] = []
    for tok in tokens:
        if tok.kind is not TokenKind.OP:
            continue
        if tok.text in "([{":
            stack.append(tok)
        elif tok.text in ")]}":
            if not stack or stack[-1].text != pairs[tok.text]:
                return f"unbalanced {tok.text!r} at offset {tok.start}"
            stack.pop()
    if stack:
        return f"unclosed {stack[-1].text!r} at offset {stack[-1].start}"
    return None
