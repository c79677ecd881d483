"""Deterministic rule-based transformations for the brace languages.

Go and C share one token/line-level engine. The Go/C facts that many rules
read live on _File: `indent_unit`, `semi` (the statement terminator, empty
in Go), `loop` (the condition-only loop keyword), `cond()` (parenthesize a
condition where the language needs it) and `terminated()`. `_header` parses
one-line if/for/while headers for both languages, and `_body_lines` walks
function bodies. `functions` is analysis.brace_functions over the tokens
_File lexed, so a rewrite lexes its text once and every rule, renames
included, reads the one function list. Only the rules whose parses or
templates differ beyond that (local-variable discovery, the inserted
snippets) still branch on `f.language`.

Each rule takes a lexed _File and the seeded RNG, draws one site with
shared.pick (NotApplicable when there is none) and returns
(new_text, entry_point); shared.rule_table wraps each as rewrite(text, rng)
on a new _File. Sites are only selected where the surrounding layout is
unambiguous (one statement per line, K&R braces, the way gofmt and most C
formatters emit code); anything else is simply not offered as a site.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import partial

from ..analysis import FunctionSpan, brace_functions, line_offsets, line_of_offset, match_brace
from ..core import Language
from ..errors import NotApplicable
from ..lexing import Token, TokenKind, lex
from .shared import (
    FN_WORDS, PREDICATE_WORDS, VAR_WORDS, fresh, indent_lines, pick, replace_tokens, rule_table, splice,
)

_C_TYPE_KEYWORDS = {
    "int", "long", "float", "double", "char", "unsigned", "signed", "short", "void", "bool",
}


@dataclass
class _File:
    text: str
    language: Language

    def __post_init__(self):
        self.tokens = lex(self.text, self.language)
        self.offsets = line_offsets(self.text)
        self.lines = self.text.split("\n")
        self.functions = brace_functions(self.tokens, self.offsets, self.language)
        go = self.language is Language.GO
        self.indent_unit = "\t" if go else "    "
        self.semi = "" if go else ";"
        self.loop = "for" if go else "while"
        by_line: dict[int, list[Token]] = {}
        for t in self.tokens:
            by_line.setdefault(line_of_offset(self.offsets, t.start), []).append(t)
        self.by_line = by_line

    def line_tokens(self, ln: int) -> list[Token]:
        return self.by_line.get(ln, [])

    def cond(self, text: str) -> str:
        """A condition as an if/loop header spells it."""
        return text if self.language is Language.GO else f"({text})"

    def terminated(self, toks: list[Token]) -> bool:
        """Whether a line ends with the statement terminator, if there is one."""
        return not self.semi or toks[-1].text == self.semi

    def indent_of(self, ln: int) -> str:
        line = self.lines[ln]
        return line[: len(line) - len(line.lstrip())]

    def identifiers(self) -> set[str]:
        return {t.text for t in self.tokens if t.kind in (TokenKind.IDENT, TokenKind.KEYWORD)}

    def token_index(self, tok: Token) -> int:
        return self.tokens.index(tok)

    def enclosing_function(self, ln: int) -> str:
        for f in self.functions:
            if f.start_line <= ln <= f.end_line:
                return f.name
        return "<file>"


def _ends_statement(f: _File, tok: Token) -> bool:
    if f.language is Language.GO:
        if tok.kind in (TokenKind.IDENT, TokenKind.INT, TokenKind.FLOAT, TokenKind.STRING, TokenKind.CHAR):
            return True
        if tok.kind is TokenKind.KEYWORD:
            return tok.text in ("return", "break", "continue", "fallthrough")
        return tok.kind is TokenKind.OP and tok.text in (")", "]", "}", "++", "--", ";", "{", ":")
    return tok.kind is TokenKind.OP and tok.text in (";", "{", "}", ":")


def _stmt_start_line(f: _File, ln: int) -> bool:
    toks = f.line_tokens(ln)
    if not toks:
        return False
    first = toks[0]
    if first.kind is TokenKind.OP and first.text in (".", ",", ")", "]"):
        return False
    if first.kind is TokenKind.KEYWORD and first.text in ("else", "case", "default"):
        return False
    prev = ln - 1
    while prev >= 0 and not f.line_tokens(prev):
        prev -= 1
    if prev < 0:
        return False
    return _ends_statement(f, f.line_tokens(prev)[-1])


def _body_lines(f: _File):
    """(function, line, tokens) for every non-blank line of a function body."""
    for fn in f.functions:
        for ln in range(fn.body_start_line, fn.body_end_line + 1):
            toks = f.line_tokens(ln)
            if toks:
                yield fn, ln, toks


def _insertion_lines(f: _File) -> list[int]:
    """Lines a new statement line can be inserted before, inside functions."""
    return sorted(
        {
            ln
            for fn in f.functions
            for ln in range(fn.body_start_line, fn.end_line + 1)
            if _stmt_start_line(f, ln)
        }
    )


def _insert_lines(text: str, at_line: int, new_lines: list[str]) -> str:
    lines = text.split("\n")
    lines[at_line:at_line] = new_lines
    return "\n".join(lines)


def _depth0_ops(toks: list[Token], texts: tuple[str, ...]) -> list[Token]:
    depth = 0
    found = []
    for t in toks:
        if t.kind is TokenKind.OP:
            if t.text in "([":
                depth += 1
            elif t.text in ")]":
                depth -= 1
            elif depth == 0 and t.text in texts:
                found.append(t)
    return found


# ---------------------------------------------------------------------------
# Renames
# ---------------------------------------------------------------------------

def _top_level(f: _File):
    """Every token outside all braces, braces excluded."""
    depth = 0
    for t in f.tokens:
        if t.kind is TokenKind.OP and t.text in "{}":
            depth += 1 if t.text == "{" else -1
        elif depth == 0:
            yield t


def _rename_ident(f: _File, renames: dict[str, str], start: int = 0, end: int | None = None) -> str:
    """Rename identifiers within [start, end) by the {old: new} map, in one pass."""
    end = len(f.text) if end is None else end
    hits = []
    for i, t in enumerate(f.tokens):
        if t.kind is not TokenKind.IDENT or t.text not in renames:
            continue
        if not (start <= t.start and t.end <= end):
            continue
        prev = f.tokens[i - 1] if i > 0 else None
        nxt = f.tokens[i + 1] if i + 1 < len(f.tokens) else None
        if prev is not None and prev.text in (".", "->", "struct", "union", "enum"):
            continue  # member access / tag namespace
        if (
            prev is not None
            and prev.text in ("{", ",")
            and nxt is not None
            and nxt.text == ":"
        ):
            continue  # keyed struct literal field
        hits.append((t.start, t.end, t.text))
    return replace_tokens(f.text, hits, renames, "no occurrences of {!r}")


def _go_method(f: _File, fn: FunctionSpan) -> bool:
    """Whether a span's header is `func (receiver) name`; in C, `func` is
    an identifier."""
    head = f.line_tokens(fn.start_line)[:2]
    return [(t.kind, t.text) for t in head] == [(TokenKind.KEYWORD, "func"), (TokenKind.OP, "(")]


def function_rename(f: _File, rng: random.Random):
    # A Go method is called after a '.', which renames skip.
    candidates = {fn.name for fn in f.functions if not _go_method(f, fn)}
    old = pick(sorted(candidates - {"main", "init"}), rng, "no renameable function")
    new = fresh(f.identifiers(), rng, FN_WORDS)
    return _rename_ident(f, {old: new}), new


def _go_local_decls(f: _File, fn: FunctionSpan) -> set[str]:
    names = set()
    start = f.offsets[fn.body_start_line]
    end = f.offsets[min(fn.end_line + 1, len(f.offsets) - 1)]
    toks = [t for t in f.tokens if start <= t.start and t.end <= end]
    for i, t in enumerate(toks):
        if t.kind is TokenKind.OP and t.text == ":=":
            j = i - 1
            while j >= 0:
                if toks[j].kind is TokenKind.IDENT:
                    names.add(toks[j].text)
                    if j - 1 >= 0 and toks[j - 1].text == ",":
                        j -= 2
                        continue
                break
        if t.kind is TokenKind.KEYWORD and t.text == "var":
            j = i + 1
            while j < len(toks) and toks[j].kind is TokenKind.IDENT:
                names.add(toks[j].text)
                if j + 1 < len(toks) and toks[j + 1].text == ",":
                    j += 2
                    continue
                break
    return names


def _c_local_decls(f: _File, fn: FunctionSpan) -> set[str]:
    names = set()
    for ln in range(fn.body_start_line, fn.end_line):
        toks = f.line_tokens(ln)
        if not toks or not _stmt_start_line(f, ln):
            continue
        if not (toks[0].kind is TokenKind.KEYWORD and toks[0].text in _C_TYPE_KEYWORDS):
            continue
        j = 1
        while j < len(toks) and (
            (toks[j].kind is TokenKind.KEYWORD and toks[j].text in _C_TYPE_KEYWORDS)
            or toks[j].text == "*"
        ):
            j += 1
        while j < len(toks) and toks[j].kind is TokenKind.IDENT:
            nxt = toks[j + 1].text if j + 1 < len(toks) else ""
            if nxt not in ("=", ";", ",", "["):
                break
            names.add(toks[j].text)
            while j + 1 < len(toks) and toks[j + 1].text != ",":
                if toks[j + 1].text in "([":
                    break
                j += 1
            j += 2
    return names


def variables_rename(f: _File, rng: random.Random):
    top = {t.text for t in _top_level(f) if t.kind is TokenKind.IDENT}
    local_decls = _go_local_decls if f.language is Language.GO else _c_local_decls
    options = []
    for fn in f.functions:
        decls = {d for d in local_decls(f, fn) if d not in top and d != "_"}
        if decls:
            options.append((fn, sorted(decls)))
    fn, names = pick(options, rng, "no function with renameable locals")
    existing = f.identifiers()
    renames = {old: fresh(existing, rng, VAR_WORDS) for old in names}
    start = f.offsets[fn.start_line]
    end = f.offsets[min(fn.end_line + 1, len(f.offsets) - 1)]
    return _rename_ident(f, renames, start, end), fn.name


# ---------------------------------------------------------------------------
# Insertions
# ---------------------------------------------------------------------------

def insert_junk_loop(f: _File, rng: random.Random):
    ln = pick(_insertion_lines(f), rng, "no insertion point")
    ind = f.indent_of(ln)
    v = fresh(f.identifiers(), rng, VAR_WORDS)
    if f.language is Language.GO:
        new = [f"{ind}for {v} := 0; {v} < 0; {v}++ {{", f"{ind}}}"]
    else:
        new = [f"{ind}for (int {v} = 0; {v} < 0; ++{v}) {{", f"{ind}}}"]
    return _insert_lines(f.text, ln, new), f.enclosing_function(ln)


def insert_variables(f: _File, rng: random.Random):
    ln = pick(_insertion_lines(f), rng, "no insertion point")
    ind = f.indent_of(ln)
    v = fresh(f.identifiers(), rng, VAR_WORDS)
    k = rng.randrange(0, 100)
    if f.language is Language.GO:
        new = [f"{ind}{v} := {k}", f"{ind}_ = {v}"]
    else:
        new = [f"{ind}int {v} = {k};", f"{ind}(void){v};"]
    return _insert_lines(f.text, ln, new), f.enclosing_function(ln)


def insert_junk_function(f: _File, rng: random.Random):
    name = fresh(f.identifiers(), rng, FN_WORDS)
    k = rng.randrange(2, 40)
    if f.language is Language.GO:
        chunk = f"\nfunc {name}() int {{\n\treturn {k}\n}}\n"
    else:
        chunk = f"\nstatic int {name}(void) {{\n    return {k};\n}}\n"
    text = f.text if f.text.endswith("\n") else f.text + "\n"
    return text + chunk, name


def _type_body_lines(f: _File) -> set[int]:
    """Lines inside a struct, union, enum or interface body, through the
    line of its closing brace; a statement may not stand there."""
    inside: set[int] = set()
    toks = f.tokens
    for i, t in enumerate(toks):
        if t.kind is not TokenKind.KEYWORD or t.text not in ("struct", "union", "enum", "interface"):
            continue
        j = i + 1 if i + 1 < len(toks) and toks[i + 1].kind is TokenKind.IDENT else i
        if j + 1 < len(toks) and toks[j + 1].text == "{":
            first = line_of_offset(f.offsets, toks[j + 1].start) + 1
            last = line_of_offset(f.offsets, toks[match_brace(toks, j + 1)].start)
            inside.update(range(first, last + 1))
    return inside


def statement_wrapping(f: _File, rng: random.Random):
    banned_first = {
        "if", "for", "switch", "select", "while", "do", "func", "var", "const", "type",
        "package", "import", "return", "case", "default", "else", "goto", "struct",
    }
    type_bodies = _type_body_lines(f)
    sites = []
    for _, ln, toks in _body_lines(f):
        if ln in type_bodies or not _stmt_start_line(f, ln) or not f.terminated(toks):
            continue
        if not _ends_statement(f, toks[-1]) or toks[-1].text in ("{", ":"):
            continue
        first = toks[0]
        if first.text in banned_first:
            continue
        if first.kind is TokenKind.KEYWORD and first.text in _C_TYPE_KEYWORDS:
            continue  # declaration: braces would change its scope
        if len(toks) > 1 and toks[1].text == ":":
            continue  # label
        if any(t.text == ":=" for t in toks):
            continue
        if f.language is Language.C_CPP and len(toks) > 1 and toks[0].kind is TokenKind.IDENT and toks[1].kind is TokenKind.IDENT:
            continue  # typedef'd declaration
        sites.append(ln)
    ln = pick(sites, rng, "no wrappable single-line statement")
    ind = f.indent_of(ln)
    header = "if true {" if f.language is Language.GO else "if (1) {"
    lines = f.lines[:]
    lines[ln] = f"{ind}{f.indent_unit}{lines[ln].lstrip()}"
    lines.insert(ln, f"{ind}{header}")
    lines.insert(ln + 2, f"{ind}}}")
    return "\n".join(lines), f.enclosing_function(ln)


# ---------------------------------------------------------------------------
# Arithmetic methods
# ---------------------------------------------------------------------------

_AUG_OPS = ("+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=")


def modify_operations(f: _File, rng: random.Random):
    sites = []
    for _, ln, toks in _body_lines(f):
        if not _stmt_start_line(f, ln) or not f.terminated(toks):
            continue
        # Leading target: IDENT(.IDENT)*
        j = 0
        if toks[j].kind is not TokenKind.IDENT:
            continue
        j += 1
        while j + 1 < len(toks) and toks[j].text == "." and toks[j + 1].kind is TokenKind.IDENT:
            j += 2
        if j >= len(toks):
            continue
        op = toks[j]
        body_end = len(toks) - len(f.semi)
        if op.kind is TokenKind.OP and op.text in _AUG_OPS and j + 1 <= body_end - 1:
            sites.append((ln, j, op, body_end))
        elif (
            op.kind is TokenKind.OP
            and op.text in ("++", "--")
            and j + 1 == body_end
        ):
            sites.append((ln, j, op, body_end))
    ln, j, op, body_end = pick(sites, rng, "no compound assignment statement")
    toks = f.line_tokens(ln)
    target = f.text[toks[0].start : toks[j - 1].end]
    ind = f.indent_of(ln)
    if op.text in ("++", "--"):
        base_op = "+" if op.text == "++" else "-"
        stmt = f"{target} = {target} {base_op} 1{f.semi}"
    else:
        value = f.text[toks[j + 1].start : toks[body_end - 1].end]
        base_op = op.text[:-1]
        if body_end - (j + 1) > 1:
            value = f"({value})"
        stmt = f"{target} = {target} {base_op} {value}{f.semi}"
    lines = f.lines[:]
    lines[ln] = ind + stmt
    return "\n".join(lines), f.enclosing_function(ln)


# Decimal only: a leading 0 makes an octal literal in C and Go.
_PLAIN_INT = re.compile(r"^[1-9][0-9_]*$")


def equi_arithmetic_expression(f: _File, rng: random.Random):
    sites = []
    for t in f.tokens:
        if t.kind is not TokenKind.INT or not _PLAIN_INT.match(t.text):
            continue
        value = int(t.text.replace("_", ""))
        if not (2 <= value <= 10**9):
            continue
        ln = line_of_offset(f.offsets, t.start)
        if f.line_tokens(ln)[0].text == "#":
            continue  # preprocessor directives want plain literals
        sites.append((t, value, ln))
    tok, value, ln = pick(sites, rng, "no integer literal to decompose")
    k = rng.randrange(1, min(value - 1, 9) + 1)
    new_text = splice(f.text, tok.start, tok.end, f"({value - k} + {k})")
    return new_text, f.enclosing_function(ln)


# ---------------------------------------------------------------------------
# Logic methods
# ---------------------------------------------------------------------------

_CMP_MIRROR = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "==": "==", "!=": "!="}
_OPERAND_OPS = {".", "+", "-", "*", "/", "%", "[", "]"}


def _scan_operand(toks: list[Token], idx: int, step: int) -> tuple[int, int] | None:
    """Scan a pure operand left (step=-1) or right (step=+1) of toks[idx].
    Returns (first_idx, last_idx) inclusive, or None."""
    j = idx + step
    collected = []
    bracket = 0
    while 0 <= j < len(toks):
        t = toks[j]
        ok = t.kind in (TokenKind.IDENT, TokenKind.INT, TokenKind.FLOAT, TokenKind.CHAR, TokenKind.STRING)
        if t.kind is TokenKind.OP and t.text in _OPERAND_OPS:
            if t.text in "[]":
                bracket += 1 if t.text == ("]" if step < 0 else "[") else -1
                if bracket < 0:
                    break
            ok = True
        if not ok:
            break
        collected.append(j)
        j += step
    if collected and bracket != 0:
        # Unbalanced tail; trim conservatively.
        collected.pop()
    if not collected:
        return None
    return min(collected), max(collected)


def swap_boolean_expression(f: _File, rng: random.Random):
    candidate_lines = {}
    for fn in f.functions:
        for ln in range(fn.start_line, fn.end_line + 1):
            toks = f.line_tokens(ln)
            if f.language is Language.C_CPP:
                if not toks or toks[0].text not in ("if", "while", "for", "return"):
                    continue
            swaps = []
            for idx, t in enumerate(toks):
                if t.kind is not TokenKind.OP or t.text not in _CMP_MIRROR:
                    continue
                left = _scan_operand(toks, idx, -1)
                right = _scan_operand(toks, idx, +1)
                if left and right:
                    swaps.append((left, idx, right))
            if swaps:
                candidate_lines[ln] = swaps
    ln = pick(sorted(candidate_lines), rng, "no comparison with swappable pure operands")
    toks = f.line_tokens(ln)
    text = f.text
    for (llo, lhi), idx, (rlo, rhi) in sorted(candidate_lines[ln], key=lambda s: -s[0][0]):
        left_src = text[toks[llo].start : toks[lhi].end]
        right_src = text[toks[rlo].start : toks[rhi].end]
        mirror = _CMP_MIRROR[toks[idx].text]
        text = splice(text, toks[llo].start, toks[rhi].end, f"{right_src} {mirror} {left_src}")
    return text, f.enclosing_function(ln)


def _header(f: _File, ln: int) -> list[Token] | None:
    """Clause tokens of a one-line if/for/while header: inside the
    parentheses in C, between the keyword and '{' in Go."""
    toks = f.line_tokens(ln)
    if f.language is Language.GO:
        return toks[1:-1] if toks[-1].text == "{" else None
    if len(toks) < 3 or toks[1].text != "(":
        return None
    open_idx = f.token_index(toks[1])
    close_idx = match_brace(f.tokens, open_idx)
    if line_of_offset(f.offsets, f.tokens[close_idx].start) != ln:
        return None
    return f.tokens[open_idx + 1 : close_idx]


def _condition_span(f: _File, ln: int) -> tuple[int, int] | None:
    """Char span of the condition of a single-line if or condition-only loop header."""
    toks = f.line_tokens(ln)
    if not toks or toks[0].kind is not TokenKind.KEYWORD or toks[0].text not in ("if", f.loop):
        return None
    inner = _header(f, ln)
    if not inner or _depth0_ops(inner, (";",)):
        return None  # init clause or three-clause for
    if any(t.text == ":=" or (t.kind is TokenKind.KEYWORD and t.text == "range") for t in inner):
        return None
    return inner[0].start, inner[-1].end


def equi_boolean_logic(f: _File, rng: random.Random):
    sites = []
    for fn in f.functions:
        for ln in range(fn.start_line, fn.end_line + 1):
            span = _condition_span(f, ln)
            if span:
                sites.append((ln, span))
    ln, (start, end) = pick(sites, rng, "no rewritable condition")
    cond = f.text[start:end].strip()
    toks = [t for t in f.tokens if start <= t.start and t.end <= end]
    bools = _depth0_ops(toks, ("&&", "||"))
    use_demorgan = bool(bools) and rng.random() < 0.7
    if use_demorgan:
        split_on = "||" if any(b.text == "||" for b in bools) else "&&"
        joiner = "&&" if split_on == "||" else "||"
        cuts = [b for b in bools if b.text == split_on]
        parts = []
        prev = start
        for b in cuts:
            parts.append(f.text[prev : b.start].strip())
            prev = b.end
        parts.append(f.text[prev:end].strip())
        new = "!(" + f" {joiner} ".join(f"!({p})" for p in parts) + ")"
    else:
        new = f"!(!({cond}))"
    return splice(f.text, start, end, new), f.enclosing_function(ln)


# ---------------------------------------------------------------------------
# Condition methods
# ---------------------------------------------------------------------------

def _body_range(f: _File, header_ln: int) -> tuple[int, int] | None:
    """(first body line, close brace line) for a header ending in '{'."""
    toks = f.line_tokens(header_ln)
    if not toks or toks[-1].text != "{":
        return None
    close = f.tokens[match_brace(f.tokens, f.token_index(toks[-1]))]
    close_ln = line_of_offset(f.offsets, close.start)
    close_toks = f.line_tokens(close_ln)
    if close_ln <= header_ln or close_toks[0].text != "}":
        return None
    return header_ln + 1, close_ln


def div_composed_if(f: _File, rng: random.Random):
    sites = []
    for _, ln, toks in _body_lines(f):
        if toks[0].text != "if":
            continue
        span = _condition_span(f, ln)
        if not span:
            continue
        inner = [t for t in f.tokens if span[0] <= t.start and t.end <= span[1]]
        ands = _depth0_ops(inner, ("&&",))
        if not ands or _depth0_ops(inner, ("||",)):
            continue
        rng_range = _body_range(f, ln)
        if not rng_range or any(t.text == "else" for t in f.line_tokens(rng_range[1])):
            continue
        sites.append((ln, span, ands[0], rng_range))
    ln, (start, end), and_tok, (body_start, close_ln) = pick(sites, rng, "no composed if without else")
    ind = f.indent_of(ln)
    unit = f.indent_unit
    first = f.text[start : and_tok.start].strip()
    rest = f.text[and_tok.end : end].strip()
    headers = [f"{ind}if {f.cond(first)} {{", f"{ind}{unit}if {f.cond(rest)} {{"]
    body = indent_lines(f.lines[body_start:close_ln], unit)
    new_lines = headers + body + [f"{ind}{unit}}}", f"{ind}}}"]
    lines = f.lines[:ln] + new_lines + f.lines[close_ln + 1 :]
    return "\n".join(lines), f.enclosing_function(ln)


def _chain_end(f: _File, j: int) -> int | None:
    """The index of the close brace that ends the if-else chain whose `if`
    is token j, or None when an `if` or `else` body of the chain does not
    open with `{`."""
    toks = f.tokens
    while True:
        if f.language is Language.GO:  # a Go body always has braces
            j = next((k for k in range(j, len(toks)) if toks[k].text == "{"), len(toks))
        elif j + 1 < len(toks) and toks[j + 1].text == "(":
            j = match_brace(toks, j + 1) + 1
        if j >= len(toks) or toks[j].text != "{":
            return None
        close = match_brace(toks, j)
        if close + 1 == len(toks) or toks[close + 1].text != "else":
            return close
        j = close + 2
        if j < len(toks) and toks[j].text != "if":
            return match_brace(toks, j) if toks[j].text == "{" else None


def div_if_else(f: _File, rng: random.Random):
    sites = []
    for i in range(len(f.tokens) - 2):
        a, b, c = f.tokens[i : i + 3]
        if a.text == "}" and b.text == "else" and c.text == "if":
            end = _chain_end(f, i + 2)
            if end is not None:
                sites.append((i, end))
    i, end = pick(sites, rng, "no else-if chain")
    else_tok, if_tok, end_tok = f.tokens[i + 1], f.tokens[i + 2], f.tokens[end]
    ln = line_of_offset(f.offsets, else_tok.start)
    ind = f.indent_of(ln)
    chunk = indent_lines(f.text[if_tok.start : end_tok.end].split("\n"), f.indent_unit)
    new = f"else {{\n{ind}" + "\n".join(chunk) + f"\n{ind}}}"
    text = splice(f.text, else_tok.start, end_tok.end, new)
    return text, f.enclosing_function(ln)


def if_continue_to_if_else(f: _File, rng: random.Random):
    sites = []
    for fn, ln, toks in _body_lines(f):
        if toks[0].text != "if":
            continue
        rng_range = _body_range(f, ln)
        if not rng_range:
            continue
        body_start, close_ln = rng_range
        body_toks = [t for bl in range(body_start, close_ln) for t in f.line_tokens(bl)]
        if [t.text for t in body_toks] != f"continue {f.semi}".split():
            continue
        if len(f.line_tokens(close_ln)) != 1:
            continue
        # Enclosing block close: first line after close_ln at strictly
        # smaller indent that is just '}' (plus optional 'while' for C do).
        ind = f.indent_of(ln)
        rest_end = None
        for after in range(close_ln + 1, fn.end_line + 1):
            toks = f.line_tokens(after)
            if toks and toks[0].text == "}" and len(f.indent_of(after)) < len(ind):
                rest_end = after
                break
        if rest_end is None or rest_end == close_ln + 1:
            continue
        if any(f.line_tokens(x) and len(f.indent_of(x)) < len(ind) for x in range(close_ln + 1, rest_end)):
            continue  # rest is not a flat tail of this block
        sites.append((ln, close_ln, rest_end))
    ln, close_ln, rest_end = pick(sites, rng, "no if-continue followed by statements")
    ind = f.indent_of(close_ln)
    lines = f.lines[:]
    lines[close_ln] = f"{ind}}} else {{"
    lines[close_ln + 1 : rest_end] = indent_lines(lines[close_ln + 1 : rest_end], f.indent_unit)
    lines.insert(rest_end, f"{ind}}}")
    return "\n".join(lines), f.enclosing_function(ln)


# ---------------------------------------------------------------------------
# Loop methods
# ---------------------------------------------------------------------------

def _body_has_loop_continue(f: _File, body_start: int, close_ln: int) -> bool:
    """Any continue bound to THIS loop (skips nested for/while bodies)."""
    skip_until = -1
    for ln in range(body_start, close_ln):
        toks = f.line_tokens(ln)
        if ln <= skip_until:
            continue
        for t in toks:
            if t.kind is TokenKind.KEYWORD and t.text in ("for", "while", "do"):
                rng_range = _body_range(f, ln)
                if rng_range:
                    skip_until = rng_range[1]
                break
        if ln <= skip_until:
            continue
        if any(t.kind is TokenKind.KEYWORD and t.text == "continue" for t in toks):
            return True
    return False


def for_while_transformation(f: _File, rng: random.Random):
    three_clause = []
    cond_only = []
    for _, ln, toks in _body_lines(f):
        if toks[0].text not in ("for", f.loop):
            continue
        rng_range = _body_range(f, ln)
        if not rng_range:
            continue
        span = _condition_span(f, ln) if toks[0].text == f.loop else None
        if span:
            cond_only.append((ln, span))
        elif toks[0].text == "for" and (inner := _header(f, ln)):
            semis = _depth0_ops(inner, (";",))
            if len(semis) == 2 and not _body_has_loop_continue(f, *rng_range):
                three_clause.append((ln, inner, semis, rng_range))
    if three_clause:
        ln, inner, semis, (body_start, close_ln) = pick(three_clause, rng, "no transformable loop")
        s1, s2 = semis
        init = f.text[inner[0].start : s1.start].strip() if inner[0].start < s1.start else ""
        cond = f.text[s1.end : s2.start].strip()
        post = f.text[s2.end : inner[-1].end].strip() if s2 is not inner[-1] else ""
        if not cond:
            raise NotApplicable("loop without condition")
        ind = f.indent_of(ln)
        unit = f.indent_unit
        block = [f"{ind}{{"]
        if init:
            block.append(f"{ind}{unit}{init}{f.semi}")
        block.append(f"{ind}{unit}{f.loop} {f.cond(cond)} {{")
        block.extend(indent_lines(f.lines[body_start:close_ln], unit))
        if post:
            block.append(f"{ind}{unit}{unit}{post}{f.semi}")
        block.extend([f"{ind}{unit}}}", f"{ind}}}"])
        return "\n".join(f.lines[:ln] + block + f.lines[close_ln + 1 :]), f.enclosing_function(ln)
    ln, (start, end) = pick(cond_only, rng, "no transformable loop")
    cond = f.text[start:end]
    if f.language is Language.GO:
        new = f"for ; {cond}; {{"
    else:
        new = f"for (; {cond}; ) {{"
    ind = f.indent_of(ln)
    lines = f.lines[:]
    lines[ln] = ind + new
    return "\n".join(lines), f.enclosing_function(ln)


# ---------------------------------------------------------------------------
# Decomposition methods
# ---------------------------------------------------------------------------

def extract_if(f: _File, rng: random.Random):
    sites = []
    for _, ln, toks in _body_lines(f):
        span = _condition_span(f, ln) if toks[0].text == "if" else None
        if span:
            sites.append((ln, span))
    ln, (start, end) = pick(sites, rng, "no extractable if condition")
    cond = f.text[start:end].strip()
    name = fresh(f.identifiers(), rng, PREDICATE_WORDS)
    ind = f.indent_of(ln)
    text = splice(f.text, start, end, f"{name}()")
    helper = [
        f"{ind}{name} := func() bool {{",
        f"{ind}{f.indent_unit}return {cond}",
        f"{ind}}}",
    ]
    return _insert_lines(text, ln, helper), f.enclosing_function(ln)


_GO_AND_C = (
    function_rename,
    variables_rename,
    insert_junk_loop,
    insert_variables,
    insert_junk_function,
    statement_wrapping,
    modify_operations,
    equi_arithmetic_expression,
    swap_boolean_expression,
    equi_boolean_logic,
    div_composed_if,
    div_if_else,
    if_continue_to_if_else,
    for_while_transformation,
)


# Closure extraction is written for Go only; C has no nested functions.
RULES = {
    Language.GO: rule_table(partial(_File, language=Language.GO), _GO_AND_C + (extract_if,)),
    Language.C_CPP: rule_table(partial(_File, language=Language.C_CPP), _GO_AND_C),
}
