import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codeperturb.core import CodeSample, Language, MethodCategory, PesoConfig, build_catalog
from codeperturb.errors import LexError
from codeperturb.peso import (
    OptimizerState,
    boltzmann_probabilities,
    derive_seed,
    gain_update,
    run,
    run_random_baseline,
    select_method,
)
from codeperturb.similarity import score_pair
from codeperturb.transform import rule_engine_apply
from codeperturb.verify import verify

from .conftest import load_fixture_corpus
from .synthetic import MarkerEngine, halving_scorer, make_verifier, noisy_scorer, triple
from .view_differential import renamed_copies

CATALOG = build_catalog()


def sample(text="x = 1\n" * 3, sid="s"):
    return CodeSample(id=sid, language=Language.PYTHON, text=text)


def fresh_state(seed=0):
    return OptimizerState.fresh(sample(), PesoConfig(rng_seed=seed))


# ---------------------------------------------------------------------------
# Boltzmann probabilities
# ---------------------------------------------------------------------------

def test_boltzmann_zero_gains_uniform():
    probs = boltzmann_probabilities([0.0] * 6, 2.0)
    assert all(abs(p - 1 / 6) < 1e-12 for p in probs)


def test_boltzmann_single_gain_closed_form():
    probs = boltzmann_probabilities([0.3, 0, 0, 0, 0, 0], 2.0)
    expected = math.exp(0.15) / (math.exp(0.15) + 5)
    assert abs(probs[0] - expected) < 1e-9
    assert all(abs(p - (1 - expected) / 5) < 1e-9 for p in probs[1:])


@given(st.lists(st.floats(0, 5), min_size=6, max_size=6), st.floats(0.01, 100))
@settings(max_examples=200, deadline=None)
def test_boltzmann_probability_law(gains, temperature):
    probs = boltzmann_probabilities(gains, temperature)
    assert all(p > 0 for p in probs)
    assert abs(sum(probs) - 1.0) < 1e-9


@given(st.lists(st.floats(0, 3), min_size=6, max_size=6), st.floats(0.1, 2))
@settings(max_examples=100, deadline=None)
def test_boltzmann_shift_invariance(gains, shift):
    a = boltzmann_probabilities(gains, 2.0)
    b = boltzmann_probabilities([g + shift for g in gains], 2.0)
    assert all(abs(x - y) < 1e-9 for x, y in zip(a, b))


def test_boltzmann_high_temperature_limit():
    probs = boltzmann_probabilities([1, 0.5, 0, 0.2, 0.9, 0.1], 1e6)
    assert max(abs(p - 1 / 6) for p in probs) < 1e-4


def test_boltzmann_monotone_in_own_gain():
    low = boltzmann_probabilities([0.1, 0, 0, 0, 0, 0], 2.0)
    high = boltzmann_probabilities([0.4, 0, 0, 0, 0, 0], 2.0)
    assert high[0] > low[0]


# ---------------------------------------------------------------------------
# gain_update
# ---------------------------------------------------------------------------

def test_gain_update_accepts_and_records():
    state = fresh_state()
    cand = state.current.derive("y = 2\n", "div_loop")
    og, accepted = gain_update(state, cand, triple(0.765))
    assert og == pytest.approx(0.235, abs=1e-12)
    assert accepted and state.mss == 0.765
    assert state.current.text == "y = 2\n"
    assert state.best_score == triple(0.765)


def test_gain_update_rejects_similarity_increase():
    state = fresh_state()
    state.mss = 0.765
    before = state.current
    cand = before.derive("z = 3\n", "div_loop")
    og, accepted = gain_update(state, cand, triple(0.9))
    assert (og, accepted) == (0.0, False)
    assert state.mss == 0.765 and state.current is before


def test_gain_update_equality_retained():
    state = fresh_state()
    state.mss = 0.5
    cand = state.current.derive("w = 4\n", "extract_if")
    og, accepted = gain_update(state, cand, triple(0.5))
    assert og == 0.0 and accepted
    assert state.current.text == "w = 4\n"


def test_gain_update_failed_verification_changes_nothing():
    state = fresh_state()
    before = state.current
    cand = before.derive("q = 5\n", "div_loop")
    og, accepted = gain_update(state, cand, None)
    assert (og, accepted) == (0.0, False)
    assert state.current is before and state.mss == 1.0


def test_gain_ledger_overwrite_is_memoryless():
    """The ledger a record's probabilities read holds, for each category,
    the gain of its latest init or main attempt (skipped, rejected or
    accepted) and 0.0 before any: the renames never write it."""
    config = PesoConfig(rng_seed=1)
    original = next(s for s, _ in load_fixture_corpus() if s.id == "classify.py")
    records = run(original, rule_engine_apply, CATALOG, config, verify).records
    ledger, overwrote, renamed_gain = [0.0] * 6, False, False
    for record in records:
        if record.phase == "rename":
            renamed_gain |= record.og > 0
        else:
            overwrote |= ledger[record.category.index] > 0 and "skipped" in record.verification
            ledger[record.category.index] = record.og
        assert record.probabilities == boltzmann_probabilities(ledger, config.temperature)
    # The run holds the cases that tell the rule from its near misses: a
    # rename with a gain, and a skipped attempt that clears a positive gain.
    assert renamed_gain and overwrote


# ---------------------------------------------------------------------------
# The start: the renames and the init phase
# ---------------------------------------------------------------------------

def test_initialize_trace_prefix_order():
    records = run(sample(), MarkerEngine(), CATALOG, PesoConfig(rng_seed=5), make_verifier(), noisy_scorer).records
    assert [r.method_id for r in records[:2]] == ["function_rename", "variables_rename"]
    assert [r.category for r in records[2:8]] == list(MethodCategory)
    assert [r.phase for r in records[:8]] == ["rename"] * 2 + ["init"] * 6


def test_initialize_all_failures_zero_gains():
    config = PesoConfig(rng_seed=1)
    result = run(sample(), MarkerEngine(), CATALOG, config, make_verifier(False), noisy_scorer)
    assert all(r.og == 0.0 and not r.accepted for r in result.records)
    assert {r.probabilities for r in result.records} == {boltzmann_probabilities([0.0] * 6, config.temperature)}
    assert result.summary.final_ss == 1.0
    assert result.final.text == sample().text


def test_initialize_gain_arithmetic():
    def scorer(original, candidate):
        from .synthetic import marker_lines

        n = len(marker_lines(candidate.text))
        return triple(0.9 if n >= 3 else 1.0)  # first init perturbation dips

    config = PesoConfig(rng_seed=2, ss_threshold=0.95)  # halts right after the init phase
    result = run(sample(), MarkerEngine(), CATALOG, config, make_verifier(), scorer)
    assert [r.phase for r in result.records] == ["rename"] * 2 + ["init"] * 6
    assert result.records[2].og == pytest.approx(0.1)
    assert result.records[-1].probabilities == boltzmann_probabilities(
        [result.records[2].og, 0, 0, 0, 0, 0], config.temperature
    )
    assert result.summary.final_ss == pytest.approx(0.9)


# ---------------------------------------------------------------------------
# select_method
# ---------------------------------------------------------------------------

def test_select_method_deterministic_under_seed():
    cfg = PesoConfig(rng_seed=9)
    picks_a = [select_method(fresh_state(9), CATALOG, cfg).id for _ in range(1)]
    picks_b = [select_method(fresh_state(9), CATALOG, cfg).id for _ in range(1)]
    assert picks_a == picks_b


def test_select_method_respects_category():
    state = fresh_state(3)
    for _ in range(50):
        m = select_method(state, CATALOG, PesoConfig())
        assert m in CATALOG.by_category[m.category]


def test_select_method_concentrates_on_high_gain():
    state = fresh_state(4)
    state.gains = [10.0, 0, 0, 0, 0, 0]
    hits = sum(
        select_method(state, CATALOG, PesoConfig()).category is MethodCategory.BASIC
        for _ in range(10_000)
    )
    expected = math.exp(5) / (math.exp(5) + 5)
    assert hits / 10_000 > 0.95
    assert abs(hits / 10_000 - expected) < 0.02


# ---------------------------------------------------------------------------
# run / run_random_baseline
# ---------------------------------------------------------------------------

def test_run_always_failing_engine_uses_all_iterations():
    cfg = PesoConfig(rng_seed=11)
    result = run(sample(), MarkerEngine(), CATALOG, cfg, make_verifier(False), noisy_scorer)
    main_records = [r for r in result.records if r.phase == "main"]
    assert len(main_records) == 15
    assert result.summary.main_iterations == 15
    assert result.final.text == sample().text
    assert not result.summary.halted_early


def test_run_halving_engine_halts_after_three_steps():
    cfg = PesoConfig(rng_seed=21)
    result = run(sample(), MarkerEngine(), CATALOG, cfg, make_verifier(), halving_scorer)
    main_records = [r for r in result.records if r.phase == "main"]
    assert len(main_records) == 3
    assert [r.score.ss for r in main_records] == [0.5, 0.25, 0.125]
    assert result.summary.final_ss == 0.125
    assert result.summary.halted_early


def test_run_mss_sequence_non_increasing():
    for seed in range(10):
        cfg = PesoConfig(rng_seed=seed)
        result = run(sample(), MarkerEngine(), CATALOG, cfg, make_verifier(), noisy_scorer)
        accepted = [r.score.ss for r in result.records if r.accepted]
        assert accepted == sorted(accepted, reverse=True)


def test_run_final_consistent_with_rescoring():
    for seed in range(5):
        cfg = PesoConfig(rng_seed=seed)
        result = run(sample(), MarkerEngine(), CATALOG, cfg, make_verifier(), noisy_scorer)
        assert abs(noisy_scorer(sample(), result.final).ss - result.summary.final_ss) < 1e-12


def test_run_deterministic_trace():
    cfg = PesoConfig(rng_seed=42)
    a = run(sample(), MarkerEngine(), CATALOG, cfg, make_verifier(), noisy_scorer)
    b = run(sample(), MarkerEngine(), CATALOG, cfg, make_verifier(), noisy_scorer)
    assert [r.to_dict() for r in a.records] == [r.to_dict() for r in b.records]
    assert a.final.text == b.final.text


def test_random_baseline_deterministic_and_uniform():
    cfg = PesoConfig(rng_seed=7, max_iter=15)
    a = run_random_baseline(sample(), MarkerEngine(), CATALOG, cfg, make_verifier(False), noisy_scorer)
    b = run_random_baseline(sample(), MarkerEngine(), CATALOG, cfg, make_verifier(False), noisy_scorer)
    assert [r.to_dict() for r in a.records] == [r.to_dict() for r in b.records]
    ids = [r.method_id for r in a.records]
    assert ids[:2] == ["function_rename", "variables_rename"]
    assert len([r for r in a.records if r.phase == "main"]) == 15
    assert all(r.phase != "init" for r in a.records)


def test_random_baseline_category_frequencies():
    counts = {c: 0 for c in MethodCategory}
    total = 0
    for seed in range(700):
        cfg = PesoConfig(rng_seed=seed, max_iter=15)
        result = run_random_baseline(
            sample(), MarkerEngine(), CATALOG, cfg, make_verifier(False), noisy_scorer
        )
        for r in result.records:
            if r.phase == "main":
                counts[r.category] += 1
                total += 1
    for category, methods in CATALOG.by_category.items():
        expected = len(methods) / 26
        sigma = math.sqrt(expected * (1 - expected) / total)
        assert abs(counts[category] / total - expected) < 3 * sigma + 1e-9


def test_probabilities_in_records_sum_to_one():
    cfg = PesoConfig(rng_seed=3)
    result = run(sample(), MarkerEngine(), CATALOG, cfg, make_verifier(), noisy_scorer)
    for record in result.records:
        assert abs(sum(record.probabilities) - 1.0) < 1e-9
        assert all(p > 0 for p in record.probabilities)


def test_derive_seed_stable_and_spread():
    assert derive_seed(42, "a") == derive_seed(42, "a")
    assert derive_seed(42, "a") != derive_seed(42, "b")
    assert derive_seed(1, "a") != derive_seed(2, "a")


# ---------------------------------------------------------------------------
# End-to-end with the real rule engine and scorer
# ---------------------------------------------------------------------------

REAL_SRC = """def scale(values, factor):
    out = []
    for v in values:
        if v > 0 and factor > 1:
            out.append(v * factor)
        else:
            out.append(v)
    return out


def main():
    data = [1, -2, 3]
    k = 2
    total = 0
    for item in scale(data, k):
        total += item
    print(total)


main()
"""


def test_run_with_real_engine_and_scorer():
    cfg = PesoConfig(rng_seed=13, max_iter=5, ss_threshold=0.2)
    original = CodeSample(id="real.py", language=Language.PYTHON, text=REAL_SRC)
    result = run(original, rule_engine_apply, CATALOG, cfg, verify)
    assert result.final.text != REAL_SRC
    rescored = score_pair(original, result.final, cfg)
    assert abs(rescored.ss - result.summary.final_ss) < 1e-12
    accepted = [r.score.ss for r in result.records if r.accepted]
    assert accepted == sorted(accepted, reverse=True)
    assert result.summary.methods_applied
    assert result.summary.function_map


def test_the_optimizer_lexes_each_accepted_text_for_functions_once(monkeypatch):
    from codeperturb import peso

    calls = []
    real = peso.find_functions
    monkeypatch.setattr(peso, "find_functions", lambda text, lang: calls.append(text) or real(text, lang))
    cfg = PesoConfig(rng_seed=13, max_iter=5, ss_threshold=0.2)
    original = CodeSample(id="real.py", language=Language.PYTHON, text=REAL_SRC)
    result = run(original, rule_engine_apply, CATALOG, cfg, verify)
    accepted = [r for r in result.records if r.accepted]
    assert len(accepted) >= 2
    # One call for the original, then one per acceptance (the accepted text).
    assert len(calls) == 1 + len(accepted)
    assert calls[0] == REAL_SRC and calls[-1] == result.final.text
    assert result.summary.function_map


def test_a_fault_in_the_function_finder_is_not_taken_for_an_unparsable_text(monkeypatch):
    """Only ParseError and LexError mean a text has no function list; any
    other error is a fault and ends the run."""
    from codeperturb import peso

    def broken(text, language):
        raise ValueError("finder fault")

    monkeypatch.setattr(peso, "find_functions", broken)
    original = CodeSample(id="real.py", language=Language.PYTHON, text=REAL_SRC)
    with pytest.raises(ValueError, match="finder fault"):
        run(original, rule_engine_apply, CATALOG, PesoConfig(rng_seed=13, max_iter=5), verify)


def _every_other_rejected(config):
    """score_pair, but every second score is 1.0, which the optimizer rejects."""
    calls = []

    def scorer(original, candidate):
        calls.append(candidate)
        return triple(1.0) if len(calls) % 2 == 0 else score_pair(original, candidate, config)

    return scorer


@pytest.mark.parametrize("rejecting", [False, True])
def test_peso_run_parses_each_python_text_once(monkeypatch, rejecting):
    """No source is parsed twice. The original is parsed whole once; a
    candidate is parsed as a padded run of its lines around its edit, which
    runs to its end when the edit changes the line count, and whole only
    when that run would be over half of it. Each distinct text is scanned
    by the lexer at most once (by the similarity score, which reads only
    verified candidates), and a candidate's scan covers only around its
    edit."""
    import builtins
    import sys

    from codeperturb import analysis, lexing, similarity

    text = renamed_copies(2000)
    analysis._views.clear()
    similarity._tokenized.clear()
    parses, scans, scanned, viewed = Counter(), Counter(), Counter(), []
    real_compile, real_scan, real_view = builtins.compile, lexing.scan, analysis.PythonView

    def counting_compile(source, *args, **kwargs):
        # ast.parse compiles its str source too, so this counts every parse.
        if isinstance(source, str):
            parses[source] += 1
            assert len(analysis._views) <= analysis.PYTHON_VIEWS
        return real_compile(source, *args, **kwargs)

    def counting_scan(source, language, pos=0):
        scans[source] += 1
        for token in real_scan(source, language, pos):
            scanned[source] += 1
            yield token

    class RecordingView(real_view):
        def __init__(self, view_text, *args):
            viewed.append(view_text)
            super().__init__(view_text, *args)

    monkeypatch.setattr(builtins, "compile", counting_compile)
    monkeypatch.setattr(analysis, "PythonView", RecordingView)
    for name, module in list(sys.modules.items()):
        if name.startswith("codeperturb") and getattr(module, "scan", None) is real_scan:
            monkeypatch.setattr(module, "scan", counting_scan)
    config = PesoConfig(rng_seed=3, max_iter=3)
    result = run(sample(text, sid="large.py"), rule_engine_apply, CATALOG, config,
                 verify, _every_other_rejected(config) if rejecting else None)
    monkeypatch.undo()
    verified = [r for r in result.records if r.verified]
    assert len(verified) >= 5 and any(r.accepted for r in verified)
    assert rejecting == any(not r.accepted for r in verified)
    assert {t: n for t, n in parses.items() if n > 1} == {}
    assert parses[text] == 1
    candidates = [c for c in viewed if c != text]
    runs = {}  # each candidate parse: (its share of the candidate, whether it reaches the end)
    for source in parses.keys() - {text}:
        lines = source.lstrip("\n")
        rests = [c.split("\n", len(source) - len(lines))[-1] for c in candidates]
        k = next(k for k, rest in enumerate(rests) if rest.startswith(lines))
        runs[source] = (len(lines) / len(candidates[k]), len(lines) == len(rests[k]))
    assert len(runs) == len(candidates) >= len(verified)
    assert {s: r for s, r in runs.items() if r[0] >= 0.25 and not r[1]} == {}
    assert 2 * sum(share == 1 for share, _ in runs.values()) < len(runs)
    assert 2 * sum(share for share, _ in runs.values()) < len(runs)
    assert text in scans and result.final.text in scans
    assert {t: n for t, n in scans.items() if n > 1} == {}
    size = {t: len(lexing.lex(t, Language.PYTHON)) for t in scans}
    assert scanned[text] == size[text]
    assert {t: (n, size[t]) for t, n in scanned.items() if t != text and 4 * n >= size[t]} == {}
    assert analysis.PYTHON_VIEWS == 2


def test_a_sample_failure_keeps_the_records_made_before_it():
    original = next(s for s, _ in load_fixture_corpus() if s.id == "collatz.py")
    config = PesoConfig(rng_seed=1, max_iter=5)
    scored = []

    def scorer(o, c):
        scored.append(c)
        if len(scored) == 3:
            raise LexError("scorer gave up", 0)
        return score_pair(o, c, config)

    with pytest.raises(LexError) as failure:
        run(original, rule_engine_apply, CATALOG, config, verify, scorer)
    trace = failure.value.partial_trace
    assert sum(r.score is not None for r in trace) == 2
    assert [r.iter for r in trace] == list(range(len(trace)))
