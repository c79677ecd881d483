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
from codeperturb.errors import EmptyStream, LanguageMismatch, LexError
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
from codeperturb.transform import RuleEngine
from codeperturb.verify import VerifyPolicy, verify

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
    real_lex = similarity.lex
    monkeypatch.setattr(similarity, "lex", lambda text, language: lexed.append(text) or real_lex(text, language))
    catalog = build_catalog()
    result = run(original, RuleEngine(catalog), catalog, PesoConfig(rng_seed=11, max_iter=3),
                 lambda o, c: verify(o, c, VerifyPolicy()))
    scored = [r for r in result.records if r.score is not None]
    assert len(scored) >= 2
    assert lexed[0] == original.text
    assert len(lexed) == len(scored) + 1


def test_an_unlexable_original_fails_on_every_call(monkeypatch):
    lexed = []
    real_lex = similarity.lex
    monkeypatch.setattr(similarity, "lex", lambda text, language: lexed.append(text) or real_lex(text, language))
    bad = sample('x = "never closed')
    for _ in range(2):
        with pytest.raises(LexError):
            score_pair(bad, sample("x = 1"), CFG)
    assert lexed == [bad.text, bad.text]


def test_importing_the_cli_leaves_numpy_out():
    env = {**os.environ, "PYTHONPATH": str(Path(codeperturb.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, codeperturb.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout.strip() == "False"
