import hashlib
import json
import random
from pathlib import Path

import pytest

from codeperturb.core import Language
from codeperturb.errors import LexError
from codeperturb.lexing import NORMAL_BY_KIND, TokenKind, check_balance, lex, reuse_bound, scan


def kinds(text, lang):
    return [t.kind for t in lex(text, lang)]


def texts(text, lang):
    return [t.text for t in lex(text, lang)]


def test_python_basic_tokens():
    toks = lex("x = 1  # set x\n", Language.PYTHON)
    assert [(t.kind, t.text) for t in toks] == [
        (TokenKind.IDENT, "x"),
        (TokenKind.OP, "="),
        (TokenKind.INT, "1"),
    ]


def test_comments_never_tokenized():
    assert texts("// c\nreturn a", Language.GO) == ["return", "a"]
    assert texts("/* multi\nline */ x", Language.C_CPP) == ["x"]
    assert texts("# hash\ny", Language.PYTHON) == ["y"]


def test_rust_nested_block_comment():
    assert texts("/* a /* b */ c */ fn", Language.RUST_LANG) == ["fn"]


def test_string_kinds():
    assert kinds('"hi"', Language.GO) == [TokenKind.STRING]
    assert kinds("'x'", Language.GO) == [TokenKind.CHAR]
    assert kinds("`raw\nstring`", Language.GO) == [TokenKind.STRING]
    assert kinds("'''doc\nstring'''", Language.PYTHON) == [TokenKind.STRING]
    assert kinds('f"v={x}"', Language.PYTHON) == [TokenKind.STRING]
    assert kinds('r#"raw"#', Language.RUST_LANG) == [TokenKind.STRING]


def test_string_contents_not_tokens():
    toks = lex('s = "if x > 1: pass"', Language.PYTHON)
    assert [t.kind for t in toks] == [TokenKind.IDENT, TokenKind.OP, TokenKind.STRING]


def test_rust_lifetime_vs_char():
    toks = lex("&'a str", Language.RUST_LANG)
    assert toks[1].kind is TokenKind.LIFETIME
    toks = lex("let c = 'z';", Language.RUST_LANG)
    assert [t.kind for t in toks][3] is TokenKind.CHAR
    toks = lex(r"let c = '\n';", Language.RUST_LANG)
    assert [t.kind for t in toks][3] is TokenKind.CHAR


def test_numbers():
    assert kinds("10 0xFF 1_000", Language.PYTHON) == [TokenKind.INT] * 3
    assert kinds("1.5 2e3 1.", Language.PYTHON) == [TokenKind.FLOAT] * 3
    assert kinds("3.14f", Language.C_CPP) == [TokenKind.FLOAT]
    assert kinds("10UL", Language.C_CPP) == [TokenKind.INT]
    assert kinds("1.5f32 9u8", Language.RUST_LANG) == [TokenKind.FLOAT, TokenKind.INT]
    # A range is two ints and an operator, not a malformed float.
    assert texts("1..5", Language.RUST_LANG) == ["1", "..", "5"]


def test_keywords_per_language():
    assert kinds("for", Language.GO) == [TokenKind.KEYWORD]
    assert kinds("func", Language.GO) == [TokenKind.KEYWORD]
    assert kinds("func", Language.PYTHON) == [TokenKind.IDENT]
    assert kinds("match", Language.RUST_LANG) == [TokenKind.KEYWORD]


def test_multichar_operators():
    assert texts("a += b", Language.PYTHON) == ["a", "+=", "b"]
    assert texts("a && b || c", Language.GO) == ["a", "&&", "b", "||", "c"]
    assert texts("x := 1", Language.GO) == ["x", ":=", "1"]
    assert texts("a // b", Language.PYTHON) == ["a", "//", "b"]
    assert texts("p->q", Language.C_CPP) == ["p", "->", "q"]


def test_spans_cover_tokens():
    src = "a+b"
    toks = lex(src, Language.PYTHON)
    assert len(toks) == 3
    assert [src[t.start : t.end] for t in toks] == ["a", "+", "b"]
    for prev, cur in zip(toks, toks[1:]):
        assert prev.end <= cur.start


def test_spans_index_source_everywhere():
    src = 'def f(a, b=2):\n    return "s" + str(a * 1.5)\n'
    for tok in lex(src, Language.PYTHON):
        assert src[tok.start : tok.end] == tok.text


def test_normalization_classes():
    toks = lex('x = f("s", 2, 3.0)', Language.PYTHON)
    assert [NORMAL_BY_KIND.get(t.kind, t.text) for t in toks] == [
        "ID", "=", "ID", "(", "STR", ",", "INT", ",", "FLOAT", ")",
    ]


def test_identifier_rename_invariance():
    a = [NORMAL_BY_KIND.get(t.kind, t.text) for t in lex("total = price * qty", Language.PYTHON)]
    b = [NORMAL_BY_KIND.get(t.kind, t.text) for t in lex("sum_ = cost * count", Language.PYTHON)]
    assert a == b


def test_lex_error_has_offset():
    with pytest.raises(LexError) as err:
        lex('x = "unterminated', Language.PYTHON)
    assert err.value.offset == 4
    with pytest.raises(LexError):
        lex("/* never closed", Language.GO)


@pytest.mark.parametrize(
    "language, text, message, offset",
    [
        (Language.PYTHON, "s = '''doc\n", "unterminated \"'''\" literal", 4),
        (Language.PYTHON, 'x = """a""', "unterminated '\"\"\"' literal", 4),
        (Language.PYTHON, "s = rb'x\n'", "unterminated \"'\" literal", 6),
        (Language.PYTHON, 'y = f"{a}', "unterminated '\"' literal", 5),
        (Language.GO, "s := `raw\n", "unterminated '`' literal", 5),
        (Language.GO, "c := 'a\n'", "unterminated \"'\" literal", 5),
        (Language.C_CPP, "char c = 'a;", "unterminated \"'\" literal", 9),
        (Language.C_CPP, 'p("a\n");', "unterminated '\"' literal", 2),
        (Language.C_CPP, "int x; /* y */ /* z", "unterminated block comment", 15),
        (Language.JAVA, 'String s = """\nabc"";', "unterminated '\"\"\"' literal", 11),
        (Language.JAVA, "c = 'a", "unterminated \"'\" literal", 4),
        (Language.RUST_LANG, 'let s = r#"abc"', "unterminated raw string", 8),
        (Language.RUST_LANG, 'let b = b"abc', "unterminated '\"' literal", 9),
        (Language.RUST_LANG, "/* a /* b */ c", "unterminated block comment", 0),
    ],
)
def test_unterminated_forms(language, text, message, offset):
    with pytest.raises(LexError) as err:
        lex(text, language)
    assert str(err.value) == f"{message} (offset {offset})"
    assert err.value.offset == offset


def test_check_balance():
    assert check_balance(lex("f(a[1]) { }", Language.GO)) is None
    assert "unclosed" in check_balance(lex("f(a", Language.GO))
    assert "unbalanced" in check_balance(lex("f)a(", Language.GO))


def test_preprocessor_line_lexes():
    toks = lex("#include <stdio.h>\nint main(void) { return 0; }", Language.C_CPP)
    assert toks[0].text == "#"
    assert check_balance(toks) is None


# The pieces where lexers go wrong: every quote and opener, string prefixes,
# comment markers, escapes, number edges and non-ASCII letters and digits
# (superscript two is a digit to str.isdigit but not to \d).
_HAZARDS = [
    "'", '"', "`", "'''", '"""', "rb", "f", 'b"', 'r#"', '"#', "r", "#", "/*", "*/",
    "//", "\\", "\n", " ", "0x", "1.", "..", "1", "e5", "_", "x", "'a", "u{", "}", "+",
    "é", "Ω", "中", "٣", "²", "\u2028",
]

LEX_OUTPUT_DIGEST = "28987859bd2fe66acb25204ac07db69ac6efe0d8a35fd95e6a2450fccfd40ecf"


def _hazard_texts(count=5000, seed=9):
    rng = random.Random(seed)
    return ["".join(rng.choices(_HAZARDS, k=rng.randint(1, 10))) for _ in range(count)]


def test_lex_output_is_frozen():
    fixtures = Path(__file__).parent / "fixtures"
    manifest = json.loads((fixtures / "manifest.json").read_text())
    texts = [(fixtures / r["path"]).read_text() for r in manifest["programs"]]
    texts += _hazard_texts()
    digest = hashlib.sha256()
    for language in Language:
        for text in texts:
            try:
                out = [(t.kind.value, t.start, t.end) for t in lex(text, language)]
            except LexError as err:
                out = (str(err), err.offset)
            digest.update(repr(out).encode())
    assert digest.hexdigest() == LEX_OUTPUT_DIGEST


def _fixture_texts():
    fixtures = Path(__file__).parent / "fixtures"
    manifest = json.loads((fixtures / "manifest.json").read_text())
    return [(fixtures / r["path"]).read_text() for r in manifest["programs"]]


# What may follow a cut: literal closers and openers, raw-string hashes.
_CONTINUATIONS = ["", '"a"', '#"a"#', '###"a"###', "'", "'''", '"""', "1", "e5", "x", "=", "\n", "*/"]


@pytest.mark.parametrize("language", list(Language))
def test_a_token_within_the_reuse_bound_lexes_alike_whatever_follows(language):
    """The two facts incremental tokenizing rests on: a lexer step reads
    nothing before its position, and a step that returns a token ending at
    e reads nothing past e + 2, save Rust's raw-string opener. So a token
    lexes alike from its start, in a text cut at any head whose reuse_bound
    it ends within, whatever follows the cut."""
    steps = 0
    texts = _fixture_texts() + _hazard_texts(count=1500) + ["let s = r###x;\n", "r##\n", "x = r#y"]
    for text in texts:
        tokens = scan(text, language)
        while True:
            try:
                kind, start, end = next(tokens)
            except (StopIteration, LexError):
                break
            steps += 1
            head = next((h for h in range(end, len(text) + 1) if reuse_bound(text, h, language) >= end), None)
            for tail in _CONTINUATIONS if head is not None else ():
                cut = text[start:head] + tail
                assert next(scan(cut, language)) == (kind, 0, end - start), (cut, text)
    assert steps > 4000


def test_lex_is_scan_with_token_texts():
    text = "def f(x):\n    return x.y + 1.5  # c\n"
    assert [(t.kind, t.start, t.end) for t in lex(text, Language.PYTHON)] == list(scan(text, Language.PYTHON))
    assert [t.text for t in lex(text, Language.PYTHON)][-3:] == ["y", "+", "1.5"]
    assert list(scan(text, Language.PYTHON, text.index("return"))) == list(scan(text, Language.PYTHON))[6:]
