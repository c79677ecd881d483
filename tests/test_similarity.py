import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import codeperturb
from codeperturb import similarity
from codeperturb.core import CodeSample, Language, PesoConfig, build_catalog
from codeperturb.errors import EmptyStream, LanguageMismatch, LexError, NotApplicable
from codeperturb.lexing import NORMAL_BY_KIND, lex
from codeperturb.peso import run
from codeperturb.similarity import (
    TokenStream,
    combined_score,
    greedy_tiles,
    levenshtein_distance,
    score_pair,
    semantic_similarity,
    surface_similarity,
    tokenize,
)
from codeperturb.transform import rule_engine_apply
from codeperturb.verify import verify

from .conftest import load_fixture_corpus
from .oracles import brute_force_coverage, brute_force_tiles, dp_levenshtein

CFG = PesoConfig()


def sample(text, lang=Language.PYTHON, sid="s"):
    return CodeSample(id=sid, language=lang, text=text)


def stream(tokens):
    return TokenStream(tokens=tuple(tokens))


# ---------------------------------------------------------------------------
# Surface similarity
# ---------------------------------------------------------------------------

def test_surface_identical():
    assert surface_similarity("abc", "abc") == 1.0


def test_surface_empty_vs_text():
    assert surface_similarity("", "xyz") == 0.0
    assert surface_similarity("", "") == 1.0


def test_surface_kitten_sitting():
    assert surface_similarity("kitten", "sitting") == pytest.approx(1 - 3 / 7, abs=1e-12)


@given(st.text(max_size=64), st.text(max_size=64))
@settings(max_examples=300, deadline=None)
def test_surface_matches_dp_oracle(a, b):
    assert levenshtein_distance(a, b) == dp_levenshtein(a, b)
    expected = 1.0 if not a and not b else 1.0 - dp_levenshtein(a, b) / max(len(a), len(b))
    assert surface_similarity(a, b) == expected


@given(st.text(max_size=48), st.text(max_size=48))
@settings(max_examples=150, deadline=None)
def test_surface_symmetric_and_in_range(a, b):
    s = surface_similarity(a, b)
    assert s == surface_similarity(b, a)
    assert 0.0 <= s <= 1.0


def test_longer_strings_against_oracle():
    a = "def f(x):\n    return x * 2 + 1\n" * 8
    b = "def g(y):\n    return y + y + 1\n" * 8
    assert levenshtein_distance(a, b) == dp_levenshtein(a, b)


SHARED_HEAD = "def f(x):\n    return x * 2 + 1\n" * 6
SHARED_TAIL = "\nfor i in range(10):\n    print(f(i))\n" * 6


@pytest.mark.parametrize(
    "a, b",
    [
        (SHARED_HEAD + "x" + SHARED_TAIL, SHARED_HEAD + SHARED_TAIL),
        (SHARED_HEAD + SHARED_TAIL, SHARED_HEAD + "xy" + SHARED_TAIL),
        (SHARED_HEAD + "x" + SHARED_TAIL, SHARED_HEAD + "y" + SHARED_TAIL),
        (SHARED_HEAD, SHARED_HEAD + SHARED_TAIL),
        (SHARED_TAIL, SHARED_HEAD + SHARED_TAIL),
        ("aaab", "aab"),
        ("baaa", "baa"),
        ("aaaa", "aaa"),
        ("abab", "ab"),
        ("abcabc", "abcbc"),
        ("ab", "ba"),
        ("a", "aa"),
    ],
)
def test_levenshtein_near_identical_matches_dp_oracle(a, b):
    assert levenshtein_distance(a, b) == dp_levenshtein(a, b)
    assert levenshtein_distance(b, a) == dp_levenshtein(a, b)


@given(
    st.text(alphabet="ab", max_size=40),
    st.integers(min_value=0, max_value=40),
    st.sampled_from(["insert", "delete", "substitute"]),
    st.sampled_from("abc"),
)
@settings(max_examples=300, deadline=None)
def test_levenshtein_single_edit_matches_dp_oracle(base, pos, op, ch):
    pos = min(pos, len(base))
    rest = base[pos:] if op == "insert" else base[pos + 1 :]
    other = base[:pos] + ("" if op == "delete" else ch) + rest
    assert levenshtein_distance(base, other) == dp_levenshtein(base, other)


# The banded path runs only once the stripped middle is at least four times
# as long as the band, so these pairs are a few hundred characters long and
# differ near both ends. "#" never occurs in code_text(), so each "#" written
# into a copy costs exactly one edit: the copy's distance is known by
# construction, and the oracle confirms it.

def code_text(rng: random.Random, length: int) -> str:
    words = ["def ", "return ", "total", "value", "(", ")", ":", "\n    ", " = ", " + ", "x", "1", ", "]
    text = ""
    while len(text) < length:
        text += rng.choice(words)
    return text[:length]


def sparse_copy(text: str, rng: random.Random, substitutions: int, insertions: int = 0) -> str:
    """text with `substitutions` characters replaced by "#" and `insertions`
    "#" inserted, always including edits at both ends of the text."""
    chars = list(text)
    inner = rng.sample(range(2, len(text) - 2), substitutions - 2) if substitutions >= 2 else []
    for pos in [0, len(text) - 1][:substitutions] + inner:
        chars[pos] = "#"
    for pos in sorted(rng.choices(range(len(text)), k=insertions), reverse=True):
        chars.insert(pos, "#")
    return "".join(chars)


@pytest.fixture
def band_passes(monkeypatch):
    """(k, result) of every banded pass levenshtein_distance makes."""
    passes = []
    real = similarity._banded

    def spy(a, b, k):
        passes.append((k, real(a, b, k)))
        return passes[-1][1]

    monkeypatch.setattr(similarity, "_banded", spy)
    return passes


def expected_passes(first: int, distance: int, shorter: int) -> list:
    """Doubling bands from `first`, each a quarter of `shorter` at most."""
    passes, k = [], first
    while 4 * (k + 1) <= shorter:
        passes.append((k, distance if distance <= k else None))
        if distance <= k:
            break
        k *= 2
    return passes


@pytest.mark.parametrize(
    "first, distance, length",
    [(64, 64, 600), (64, 65, 600), (64, 128, 600), (64, 129, 600),
     (4, 4, 300), (4, 5, 300), (4, 8, 300), (4, 9, 300), (4, 16, 300),
     (4, 17, 300), (4, 32, 300), (4, 33, 300), (4, 64, 300), (4, 65, 300)],
)
def test_banded_distance_is_exact_on_each_side_of_a_doubling(monkeypatch, band_passes, first, distance, length):
    monkeypatch.setattr(similarity, "_FIRST_BAND", first)
    rng = random.Random(distance * 1000 + length)
    a = code_text(rng, length)
    b = sparse_copy(a, rng, distance)
    assert dp_levenshtein(a, b) == distance
    assert levenshtein_distance(a, b) == distance
    assert levenshtein_distance(b, a) == distance
    # Neither text has a common prefix or suffix, so the whole text is the middle.
    assert band_passes == 2 * expected_passes(first, distance, length)


@pytest.mark.parametrize("substitutions", [0, 5])
def test_banded_distance_when_the_length_gap_exceeds_the_first_band(band_passes, substitutions):
    rng = random.Random(70 + substitutions)
    a = code_text(rng, 600)
    if substitutions:
        b = sparse_copy(a, rng, substitutions, insertions=70)
    else:
        b = "#" * 35 + a + "#" * 35
    distance = substitutions + 70
    assert dp_levenshtein(a, b) == distance
    assert levenshtein_distance(a, b) == levenshtein_distance(b, a) == distance
    # The first band is the length gap, not 64.
    assert band_passes[0][0] == 70
    assert band_passes == 2 * expected_passes(70, distance, 600)


def test_a_dissimilar_pair_falls_back_to_the_full_width_loop(band_passes):
    rng = random.Random(3)
    a, b = code_text(rng, 400), code_text(rng, 420)
    distance = dp_levenshtein(a, b)
    assert levenshtein_distance(a, b) == levenshtein_distance(b, a) == distance
    assert distance > 128
    # One failed 64-band pass per call; a 128-band would be over a quarter of 400.
    assert band_passes == [(64, None), (64, None)]


def test_tiny_bands_match_the_dp_oracle(monkeypatch):
    monkeypatch.setattr(similarity, "_FIRST_BAND", 1)
    rng = random.Random(5)
    for _ in range(200):
        a = "".join(rng.choice("abcé\n") for _ in range(rng.randrange(8, 60)))
        b = list(a)
        for _ in range(rng.randrange(1, 6)):
            pos = rng.randrange(len(b) + 1)
            op = rng.randrange(3)
            if op == 0:
                b.insert(pos, rng.choice("abcé\n"))
            elif pos < len(b):
                if op == 1:
                    del b[pos]
                else:
                    b[pos] = rng.choice("abcé\n")
        b = "".join(b)
        expected = dp_levenshtein(a, b)
        assert levenshtein_distance(a, b) == levenshtein_distance(b, a) == expected


# ---------------------------------------------------------------------------
# Tokenize
# ---------------------------------------------------------------------------

def test_tokenize_rename_invariant():
    assert tokenize(sample("x = 1")).tokens == tokenize(sample("y = 1")).tokens


def test_tokenize_strips_comments():
    toks = tokenize(sample("// c\nreturn a", Language.GO))
    assert toks.tokens == ("return", "ID")


def test_tokenize_spans():
    ts = tokenize(sample("a+b"))
    assert len(ts) == 3


def test_tokenize_lex_error():
    with pytest.raises(LexError):
        tokenize(sample('x = "oops'))


def _full_stream(text, language):
    try:
        return tuple(NORMAL_BY_KIND.get(t.kind, t.text) for t in lex(text, language))
    except LexError as err:
        return str(err)


def _incremental_stream(text, language):
    try:
        tokens = tokenize(sample(text, language)).tokens
    except LexError as err:
        return str(err)
    assert list(similarity._tokenized[(language, text)][0]) == [t.start for t in lex(text, language)]
    return tokens


# Quotes, openers, comment markers, escapes, line ends and number edges.
_EDITS = ['"', "'", '"""', "'''", "`", "#", "//", "/*", "*/", "\\", "\r", "\t", "\n", " ", "1", "1e+",
          "0x", ".", "r", 'b"', "f", 'r#"', "'a", "x", "_", "<<", "=", "{", "}", ""]


@pytest.mark.parametrize("language", list(Language))
def test_tokenize_matches_a_full_lex_after_random_edits(language):
    texts = [s.text for s, _ in load_fixture_corpus()]
    rng = random.Random(f"edits:{language.value}")
    for _ in range(25):
        similarity._tokenized.clear()
        text = rng.choice(texts)
        for _ in range(12):
            i = rng.randrange(len(text) + 1)
            text = text[:i] + rng.choice(_EDITS) + text[i + rng.choice([0, 0, 1, 2, 4]) :]
            assert _incremental_stream(text, language) == _full_stream(text, language), text
            assert len(similarity._tokenized) <= similarity._TOKENIZED


@pytest.mark.parametrize("language", [Language.PYTHON, Language.C_CPP])
def test_tokenize_matches_a_full_lex_along_rule_chains(language):
    from codeperturb.transform import RULES

    rules = RULES[language]
    rewrites = 0
    for original, _ in load_fixture_corpus(languages={language}):
        similarity._tokenized.clear()
        text = original.text
        assert _incremental_stream(text, language) == _full_stream(text, language)
        rng = random.Random(original.id)
        for _ in range(6):
            try:
                text, _ = rules[rng.choice(sorted(rules))](text, rng)
            except NotApplicable:
                continue
            assert _incremental_stream(text, language) == _full_stream(text, language), original.id
            rewrites += 1
    assert rewrites >= 20


@pytest.mark.parametrize("language, before, after", [
    (Language.PYTHON, "x = 1e+y\n", "x = 1e+5\n"),  # the token 1e reads a character past its end
    (Language.PYTHON, "x = 1e+5\n", "x = 1e+y\n"),
    (Language.PYTHON, "x = 1 .y\n", "x = 1.y\n"),
    (Language.PYTHON, "s = 'a' + 'b'\n", "s = 'a' '+ 'b'\n"),
    (Language.RUST_LANG, "let s = r###x;\n", "let s = r###\"a\"###;\n"),  # r reads its run of #
    (Language.RUST_LANG, "let s = r###\"a\"###;\n", "let s = r###x;\n"),
])
def test_tokenize_relexes_a_token_whose_lookahead_an_edit_reaches(language, before, after):
    similarity._tokenized.clear()
    assert _incremental_stream(before, language) == _full_stream(before, language)
    assert _incremental_stream(after, language) == _full_stream(after, language)


def test_tokenize_rescans_only_around_an_edit(monkeypatch):
    text = "".join(f"def f{k}(a):\n    return a + {k}\n\n" for k in range(200))
    similarity._tokenized.clear()
    tokenize(sample(text))
    scanned = []
    real_scan = similarity.scan

    def counting_scan(text, language, pos=0):
        for token in real_scan(text, language, pos):
            scanned.append(token)
            yield token

    monkeypatch.setattr(similarity, "scan", counting_scan)
    edited = text.replace("return a + 100\n", "return (a) + 100\n")
    assert tokenize(sample(edited)).tokens == _full_stream(edited, Language.PYTHON)
    assert 0 < len(scanned) < 10
    assert tokenize(sample(text)).tokens == _full_stream(text, Language.PYTHON)  # kept: no scan
    assert len(scanned) < 10


# ---------------------------------------------------------------------------
# Semantic similarity
# ---------------------------------------------------------------------------

def test_semantic_identical_full_tile():
    s = stream(["ID"] * 20)
    assert semantic_similarity(s, s, 9) == 1.0


def test_semantic_disjoint_alphabets():
    a = stream(["ID", "=", "INT"] * 10)
    b = stream(["while", "(", ")"] * 10)
    assert semantic_similarity(a, b, 9) == 0.0


def test_semantic_single_shared_run():
    shared = [f"k{i}" for i in range(10)]
    a = stream(shared + [f"a{i}" for i in range(10)])
    b = stream([f"b{i}" for i in range(20)] + shared)
    assert semantic_similarity(a, b, 9) == pytest.approx(2 * 10 / 50)


def test_semantic_both_empty_raises():
    with pytest.raises(EmptyStream):
        semantic_similarity(stream([]), stream([]), 9)


def test_semantic_one_empty():
    assert semantic_similarity(stream([]), stream(["ID"] * 12), 9) == 0.0


def test_semantic_short_identical_streams():
    s = stream(["ID", "=", "INT"])
    assert semantic_similarity(s, s, 9) == 1.0


token_alphabet = st.sampled_from(["ID", "INT", "STR", "=", "(", ")", "if", "+", ":", "return"])
token_streams = st.lists(token_alphabet, max_size=64).map(tuple)


@given(token_streams, token_streams, st.integers(min_value=1, max_value=6))
@settings(max_examples=200, deadline=None)
def test_semantic_matches_brute_force_oracle(a, b, min_len):
    if not a and not b:
        return
    got = semantic_similarity(stream(a), stream(b), min_len)
    # The oracle follows the same canonical orientation as the scorer.
    ca, cb = (a, b) if a <= b else (b, a)
    assert got == brute_force_coverage(ca, cb, min_len)


@given(token_streams, token_streams)
@settings(max_examples=100, deadline=None)
def test_semantic_symmetric_and_in_range(a, b):
    if not a and not b:
        return
    s = semantic_similarity(stream(a), stream(b), 3)
    assert s == semantic_similarity(stream(b), stream(a), 3)
    assert 0.0 <= s <= 1.0


@st.composite
def repeat_heavy_pairs(draw):
    """Two streams over a tiny alphabet, built from one repeated motif with
    a few spot edits, so that runs overlap, get split and are re-queued."""
    alphabet = ("ID", "=", "(")[: draw(st.integers(min_value=1, max_value=3))]
    motif = draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=5))

    def one():
        seq = motif * draw(st.integers(min_value=0, max_value=12))
        for pos, tok in draw(st.lists(st.tuples(st.integers(0, 59), st.sampled_from(alphabet)), max_size=4)):
            if seq:
                seq[pos % len(seq)] = tok
        return tuple(seq)

    return one(), one()


@given(repeat_heavy_pairs(), st.integers(min_value=1, max_value=6))
@settings(max_examples=300, deadline=None)
def test_greedy_tiles_match_brute_force_tiles(pair, min_len):
    a, b = pair
    assert greedy_tiles(a, b, min_len) == brute_force_tiles(a, b, min_len)


def test_both_tiling_passes_match_brute_force_tiles(monkeypatch):
    """With the first pass's floor forced small, pairs reach the second pass
    and its skip, and the tiles stay the oracle's."""
    monkeypatch.setattr(similarity, "_LONG_RUNS", 6)
    second, skipped = [], []
    real_runs, real_free = similarity._maximal_runs, similarity._free_stretches
    monkeypatch.setattr(similarity, "_maximal_runs", lambda *args: second.append(1) or real_runs(*args))

    def free(*args):
        found = real_free(*args)
        skipped.append(not found[0])
        return found

    monkeypatch.setattr(similarity, "_free_stretches", free)
    rng = random.Random(3)
    for _ in range(400):
        alphabet = ("ID", "=", "(", "INT")[: rng.randint(1, 4)]
        motif = [rng.choice(alphabet) for _ in range(rng.randint(1, 12))]
        a = motif * rng.randint(0, 8)
        b = list(a) if rng.random() < 0.6 else motif * rng.randint(0, 8)
        for _ in range(rng.randint(0, 4)):
            if b:
                b[rng.randrange(len(b))] = rng.choice(alphabet)
        min_len = rng.randint(1, 8)
        assert greedy_tiles(tuple(a), tuple(b), min_len) == brute_force_tiles(tuple(a), tuple(b), min_len)
    assert len(second) > 50 and sum(skipped) > 50


def test_greedy_tiles_on_a_repetitive_1k_pair():
    """Expected list computed once with tests.oracles.brute_force_tiles."""
    rng = random.Random(7)
    alphabet = ("ID", "=", "(", ")", "INT", ":")
    motifs = [tuple(rng.choice(alphabet) for _ in range(40)) for _ in range(5)]
    a = [tok for k in range(25) for tok in motifs[k % 5]]
    order = list(range(25))
    rng.shuffle(order)
    b = [tok for k in order for tok in motifs[k % 5]]
    for pos in rng.sample(range(len(b)), 12):
        b[pos] = "return"
    assert greedy_tiles(tuple(a), tuple(b), 9) == [
        (103, 137, 617), (81, 280, 0), (80, 40, 240), (80, 560, 520), (41, 400, 760),
        (41, 839, 399), (40, 240, 920), (40, 480, 200), (40, 520, 720), (40, 680, 880),
        (40, 760, 160), (39, 361, 801), (37, 441, 81), (37, 720, 440), (35, 0, 320),
        (33, 806, 126), (29, 920, 840), (26, 973, 373), (21, 659, 979), (20, 900, 500),
        (18, 640, 960), (16, 120, 600), (12, 960, 360), (10, 950, 870),
    ]


def test_greedy_tiles_do_not_overlap():
    a = tuple(["x", "y"] * 20)
    b = tuple(["x", "y"] * 15 + ["z"] * 5)
    tiles = greedy_tiles(a, b, 2)
    seen_a, seen_b = set(), set()
    for length, i, j in tiles:
        ra, rb = set(range(i, i + length)), set(range(j, j + length))
        assert not (ra & seen_a) and not (rb & seen_b)
        seen_a |= ra
        seen_b |= rb
        assert length >= 2
        assert a[i : i + length] == b[j : j + length]


# ---------------------------------------------------------------------------
# Combined score and score_pair
# ---------------------------------------------------------------------------

def test_combined_score_paper_rows():
    assert combined_score(0.80, 0.73, CFG) == pytest.approx(0.765, abs=1e-12)
    assert combined_score(0.55, 0.00, CFG) == pytest.approx(0.275, abs=1e-12)


@given(st.floats(0, 1), st.floats(0.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_combined_equal_inputs_fixed_point(x, mu):
    cfg = PesoConfig(mu=mu, nu=1.0 - mu)
    assert combined_score(x, x, cfg) == pytest.approx(x, abs=1e-12)


def test_combined_monotone():
    assert combined_score(0.6, 0.4, CFG) >= combined_score(0.5, 0.4, CFG)
    assert combined_score(0.6, 0.5, CFG) >= combined_score(0.6, 0.4, CFG)


def test_score_pair_self():
    s = sample("def f():\n    return 1\n" * 6)
    sc = score_pair(s, s, CFG)
    assert (sc.s1, sc.s2, sc.ss) == (1.0, 1.0, 1.0)


def test_score_pair_rename_semantically_invisible():
    a = sample("def add(left, right):\n    total = left + right\n    return total\n")
    b = sample("def plus(lhs, rhs):\n    acc = lhs + rhs\n    return acc\n")
    sc = score_pair(a, b, PesoConfig(min_tile_len=3))
    assert sc.s2 == 1.0
    assert sc.s1 < 1.0
    assert sc.ss == pytest.approx(0.5 * sc.s1 + 0.5, abs=1e-12)


def test_score_pair_language_mismatch():
    with pytest.raises(LanguageMismatch):
        score_pair(sample("x = 1"), sample("x := 1", Language.GO), CFG)


def test_score_pair_golden_fixture():
    """Golden triple computed once with the DP and brute-force oracles."""
    a = sample(
        "def mean(values):\n"
        "    total = 0\n"
        "    for v in values:\n"
        "        total += v\n"
        "    return total / len(values)\n"
    )
    b = sample(
        "def average(nums):\n"
        "    acc = 0\n"
        "    count = 0\n"
        "    for n in nums:\n"
        "        acc += n\n"
        "        count += 1\n"
        "    return acc / count\n"
    )
    sc = score_pair(a, b, CFG)
    d = dp_levenshtein(a.text, b.text)
    expect_s1 = 1.0 - d / max(len(a.text), len(b.text))
    ta, tb = tokenize(a).tokens, tokenize(b).tokens
    ca, cb = (ta, tb) if ta <= tb else (tb, ta)
    expect_s2 = brute_force_coverage(ca, cb, CFG.min_tile_len)
    assert sc.s1 == expect_s1
    assert sc.s2 == expect_s2
    assert sc.ss == pytest.approx(0.5 * expect_s1 + 0.5 * expect_s2, abs=1e-12)


def test_peso_run_lexes_the_original_once_for_scoring(monkeypatch):
    fixture, _ = next(item for item in load_fixture_corpus() if item[0].id == "collatz.py")
    # A text no other test scores, so that no earlier call has cached it.
    original = sample(fixture.text + "# lexed once for scoring\n", sid=fixture.id)
    lexed = []
    real_scan = similarity.scan
    monkeypatch.setattr(similarity, "scan", lambda text, language, pos=0: lexed.append(text) or real_scan(text, language, pos))
    catalog = build_catalog()
    result = run(original, rule_engine_apply, catalog, PesoConfig(rng_seed=11, max_iter=3), verify)
    scored = [r for r in result.records if r.score is not None]
    assert len(scored) >= 2
    assert lexed[0] == original.text
    assert len(lexed) == len(scored) + 1


def test_an_unlexable_original_fails_on_every_call(monkeypatch):
    lexed = []
    real_scan = similarity.scan
    monkeypatch.setattr(similarity, "scan", lambda text, language, pos=0: lexed.append(text) or real_scan(text, language, pos))
    bad = sample('x = "never closed')
    for _ in range(2):
        with pytest.raises(LexError):
            score_pair(bad, sample("x = 1"), CFG)
    assert lexed == [bad.text, bad.text]


def _imported_with_the_cli(module: str) -> str:
    """Whether importing codeperturb.cli imports `module`, as printed: "True" or "False"."""
    env = {**os.environ, "PYTHONPATH": str(Path(codeperturb.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, codeperturb.cli; print({module!r} in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    return proc.stdout.strip()


def test_importing_the_cli_leaves_numpy_out():
    assert _imported_with_the_cli("numpy") == "False"


def test_importing_the_cli_leaves_multiprocessing_out():
    # The CLI imports its process pool only when --jobs forks one.
    assert _imported_with_the_cli("multiprocessing") == "False"
