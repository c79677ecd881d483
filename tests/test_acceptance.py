"""Acceptance suite.

Each test prints one pass/fail line and enforces its runtime budget.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import random
import statistics
import time
from contextlib import contextmanager

import pytest

from codeperturb.cli import main as cli_main
from codeperturb.core import (
    CodeSample,
    EquivalenceSpec,
    Language,
    MethodCategory,
    PesoConfig,
    build_catalog,
)
from codeperturb.bench import FilterReason, PerturbedPair, Variant, build_tasks, filter_sample
from codeperturb.errors import NotApplicable
from codeperturb.peso import boltzmann_probabilities, derive_seed, run, run_random_baseline
from codeperturb.similarity import combined_score
from codeperturb.transform import RuleEngine, rule_engine_apply
from codeperturb.verify import (
    ProgramRunner,
    execution_equivalence,
    verify,
    default_toolchains,
)

from .conftest import load_fixture_corpus, write_corpus_jsonl
from .synthetic import MarkerEngine, category_scorer, halving_scorer, make_verifier, noisy_scorer

CATALOG = build_catalog()
CFG = PesoConfig()


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\n[ACCEPTANCE] criterion {number:02d} FAIL: {description}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s (budget {budget_s}s)"
    print(f"\n[ACCEPTANCE] criterion {number:02d} PASS ({elapsed:.1f}s): {description}")


# ---------------------------------------------------------------------------
# Criterion 1: Eq. 1 combiner reproduction over the published table
# ---------------------------------------------------------------------------
# Each row: (sus, ses, ss) for python/optimized, python/random, go/optimized,
# go/random. Two go/random triples are arithmetically inconsistent as printed
# (no valid weighting of their own sus/ses yields the printed ss at mu=nu=0.5:
# rows 9 and 19) and are excluded as source typos; the other 78 are asserted.
SIMILARITY_TABLE = [
    # (py_m, py_r, go_m, go_r)
    ((0.80, 0.73, 0.765), (0.81, 0.75, 0.78), (0.72, 0.82, 0.77), (0.76, 0.92, 0.84)),
    ((0.55, 0.27, 0.41), (0.77, 0.41, 0.59), (0.75, 0.95, 0.85), (0.78, 0.99, 0.885)),
    ((0.70, 0.78, 0.74), (0.70, 0.39, 0.545), (0.51, 0.78, 0.645), (0.48, 0.84, 0.66)),
    ((0.66, 0.69, 0.675), (0.69, 0.69, 0.69), (0.81, 0.94, 0.875), (0.74, 0.98, 0.86)),
    ((0.71, 0.91, 0.81), (0.86, 0.96, 0.91), (0.82, 0.89, 0.855), (0.81, 0.95, 0.88)),
    ((0.71, 0.37, 0.54), (0.68, 0.83, 0.755), (0.41, 0.56, 0.485), (0.38, 0.48, 0.43)),
    ((0.67, 0.53, 0.60), (0.71, 0.72, 0.715), (0.48, 0.32, 0.40), (0.73, 0.51, 0.62)),
    ((0.82, 0.83, 0.825), (0.83, 0.90, 0.865), (0.64, 0.87, 0.755), (0.51, 0.87, 0.69)),
    ((0.71, 0.53, 0.62), (0.82, 0.76, 0.79), (0.68, 0.81, 0.745), None),  # go_r misprinted
    ((0.77, 0.71, 0.74), (0.83, 0.72, 0.775), (0.60, 0.82, 0.71), (0.59, 0.89, 0.74)),
    ((0.75, 0.75, 0.75), (0.73, 0.88, 0.805), (0.59, 0.84, 0.715), (0.44, 0.52, 0.48)),
    ((0.82, 0.96, 0.89), (0.83, 0.88, 0.855), (0.73, 0.94, 0.835), (0.76, 0.97, 0.865)),
    ((0.49, 0.60, 0.545), (0.51, 0.17, 0.34), (0.65, 0.75, 0.70), (0.89, 0.98, 0.935)),
    ((0.74, 0.77, 0.755), (0.86, 0.92, 0.89), (0.61, 0.80, 0.705), (0.78, 0.85, 0.815)),
    ((0.66, 0.66, 0.66), (0.80, 0.84, 0.82), (0.52, 0.83, 0.675), (0.91, 0.96, 0.935)),
    ((0.62, 0.48, 0.55), (0.64, 0.47, 0.555), (0.85, 0.91, 0.88), (0.89, 0.98, 0.935)),
    ((0.55, 0.00, 0.275), (0.77, 0.00, 0.385), (0.72, 0.96, 0.84), (0.80, 0.85, 0.825)),
    ((0.59, 0.24, 0.415), (0.69, 0.37, 0.53), (0.40, 0.52, 0.46), (0.43, 0.21, 0.32)),
    ((0.69, 0.45, 0.57), (0.67, 0.26, 0.465), (0.64, 0.43, 0.535), None),  # go_r misprinted
    ((0.57, 0.27, 0.42), (0.76, 0.71, 0.735), (0.61, 0.80, 0.705), (0.81, 0.89, 0.85)),
]


def test_criterion_01_combiner_reproduces_similarity_table():
    with criterion(1, "Eq. 1 combiner reproduces all consistent table triples to +-0.005", 1.0):
        checked = 0
        for row in SIMILARITY_TABLE:
            for triple in row:
                if triple is None:
                    continue
                sus, ses, ss = triple
                assert combined_score(sus, ses, CFG) == pytest.approx(ss, abs=0.005)
                checked += 1
        assert checked == 78


# ---------------------------------------------------------------------------
# Criterion 2: Eq. 2 law
# ---------------------------------------------------------------------------

def test_criterion_02_boltzmann_law():
    with criterion(2, "Boltzmann selection law: uniformity, closed form, normalization", 5.0):
        probs = boltzmann_probabilities([0.0] * 6, 2.0)
        assert all(abs(p - 1 / 6) < 1e-12 for p in probs)
        probs = boltzmann_probabilities([0.3, 0, 0, 0, 0, 0], 2.0)
        closed_form = math.exp(0.15) / (math.exp(0.15) + 5)
        assert abs(probs[0] - closed_form) < 1e-9
        rng = random.Random(2024)
        for _ in range(100_000):
            gains = [rng.uniform(0, 1) for _ in range(6)]
            assert abs(sum(boltzmann_probabilities(gains, 2.0)) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# Criterion 3: PESO monotonicity and final-score consistency
# ---------------------------------------------------------------------------

def test_criterion_03_monotonicity_over_200_runs():
    with criterion(3, "accepted-ss trace non-increasing and final mss re-scores exactly, 200 seeds", 30.0):
        base = CodeSample(id="mono", language=Language.PYTHON, text="x = 1\n")
        for seed in range(200):
            cfg = PesoConfig(rng_seed=seed)
            result = run(base, MarkerEngine(), CATALOG, cfg, make_verifier(), noisy_scorer)
            accepted = [r.score.ss for r in result.records if r.accepted]
            assert accepted == sorted(accepted, reverse=True)
            rescored = noisy_scorer(base, result.final).ss
            assert abs(rescored - result.summary.final_ss) < 1e-12


# ---------------------------------------------------------------------------
# Criterion 4: termination
# ---------------------------------------------------------------------------

def test_criterion_04_termination():
    with criterion(4, "halving engine stops after 3 accepted main steps; failing engine runs 15", 5.0):
        base = CodeSample(id="term", language=Language.PYTHON, text="x = 1\n")
        result = run(base, MarkerEngine(), CATALOG, PesoConfig(rng_seed=1), make_verifier(), halving_scorer)
        main_scores = [r.score.ss for r in result.records if r.phase == "main"]
        assert main_scores == [0.5, 0.25, 0.125]
        assert result.summary.final_ss <= 0.2
        assert result.summary.halted_early
        result = run(base, MarkerEngine(), CATALOG, PesoConfig(rng_seed=1), make_verifier(False), noisy_scorer)
        assert result.summary.main_iterations == 15
        assert len([r for r in result.records if r.phase == "main"]) == 15
        assert result.summary.final_ss == 1.0


# ---------------------------------------------------------------------------
# Criterion 5: semantic preservation on the executable corpus
# ---------------------------------------------------------------------------

def test_criterion_05_semantic_preservation_oracle(servers):
    with criterion(5, "every verified rule perturbation is execution-equivalent on the corpus", 120.0):
        corpus = load_fixture_corpus()
        languages = {s.language for s, _ in corpus}
        assert len(corpus) >= 20 and len(languages) >= 2
        toolchains = default_toolchains()
        runners = {lang: ProgramRunner(toolchains[lang], servers) for lang in languages}
        # verify() compiles through the same runner the equivalence check
        # uses, so each candidate is compiled once.
        applied = {lang: 0 for lang in languages}
        rule_engine = RuleEngine()
        for sample, spec in corpus:
            for m in CATALOG.methods:
                if not rule_engine.supported(m, sample.language):
                    continue
                seed = derive_seed(5, f"{sample.id}:{m.id}")
                try:
                    outcome = rule_engine_apply(sample, m, seed)
                except NotApplicable:
                    continue
                report = verify(sample, outcome.candidate, runners[sample.language])
                assert report.passed, (
                    f"{sample.id}/{m.id}: rule output failed verification: {report.diagnostics}"
                )
                equivalent = execution_equivalence(
                    sample, outcome.candidate, spec, runners[sample.language]
                )
                assert equivalent, f"{sample.id}/{m.id}: behavior changed"
                applied[sample.language] += 1
        for runner in runners.values():
            runner.close()
        assert all(count >= 40 for count in applied.values()), applied


# ---------------------------------------------------------------------------
# Criterion 6: selection beats random on a one-good-category landscape
# ---------------------------------------------------------------------------

def test_criterion_06_selection_vs_random():
    with criterion(6, "optimizer concentrates on the rewarding category and beats random", 60.0):
        good = MethodCategory.LOOP
        scorer = category_scorer(good, step=0.1)
        base = CodeSample(id="land", language=Language.PYTHON, text="x = 1\n")
        # At T=2 a 0.1 gain cannot double the uniform probability by
        # construction of Eq. 2, so the landscape is probed at T=0.05.
        good_picks = total_picks = 0
        optimized_finals, random_finals = [], []
        for seed in range(40):
            cfg = PesoConfig(rng_seed=seed, temperature=0.05)
            result = run(base, MarkerEngine(), CATALOG, cfg, make_verifier(), scorer)
            for record in result.records:
                if record.phase == "main":
                    total_picks += 1
                    good_picks += record.category is good
            optimized_finals.append(result.summary.final_ss)
            baseline = run_random_baseline(
                base, MarkerEngine(), CATALOG, cfg, make_verifier(), scorer
            )
            random_finals.append(baseline.summary.final_ss)
        frequency = good_picks / total_picks
        assert frequency > 2 / 6, f"selection frequency {frequency:.3f} not above 2x uniform"
        assert statistics.mean(optimized_finals) <= statistics.mean(random_finals)


# ---------------------------------------------------------------------------
# Criterion 7: filtering boundaries
# ---------------------------------------------------------------------------

def test_criterion_07_filtering_boundaries():
    with criterion(7, "line/char thresholds and the injected-main diagnostic", 5.0):
        lines_39 = "\n".join(f"value_{i:03d} = {i} * 100" for i in range(39))
        assert len(lines_39.splitlines()) == 39 and len(lines_39) >= 100
        v = filter_sample(CodeSample(id="a.py", language=Language.PYTHON, text=lines_39))
        assert not v.kept and v.reasons == frozenset({FilterReason.TOO_FEW_LINES})

        chars_99 = ("\n".join(f"a{i}=0" for i in range(40)))[:99]
        assert len(chars_99) == 99
        v = filter_sample(CodeSample(id="b.py", language=Language.PYTHON, text=chars_99))
        assert FilterReason.TOO_FEW_CHARS in v.reasons and not v.kept

        lines_40 = "\n".join(f"value_{i:03d} = {i}" for i in range(40))
        assert len(lines_40.splitlines()) == 40 and len(lines_40) >= 100
        v = filter_sample(CodeSample(id="c.py", language=Language.PYTHON, text=lines_40))
        assert v.kept and not v.reasons

        # Exactly 100 chars and exactly 40 lines: both boundaries inclusive.
        exact_100 = "\n".join(["a=10"] + ["a=1"] * 18 + [""] * 20 + ["a=1"])
        assert len(exact_100) == 100 and len(exact_100.splitlines()) == 40
        v = filter_sample(CodeSample(id="d.py", language=Language.PYTHON, text=exact_100))
        assert v.kept

        rust = "fn helper(x: i32) -> i32 {\n    x + 1\n}\n" + "".join(
            f"// filler line {i}\n" for i in range(40)
        )
        v = filter_sample(CodeSample(id="lib.rs", language=Language.RUST_LANG, text=rust))
        assert v.kept
        assert any("synthetic" in d and "main" in d for d in v.diagnostics)


# ---------------------------------------------------------------------------
# Criterion 8: task integrity over 1,000 random pairs
# ---------------------------------------------------------------------------

def _random_pair(rng: random.Random) -> tuple[PerturbedPair, int]:
    name = rng.choice(["alpha", "beta", "gamma", "delta"])
    n = rng.randrange(6, 16)
    orig_lines = [f"def {name}(k):"]
    for i in range(n):
        orig_lines.append(f"    v{i} = k + {i}")
        # Keep the first five statements contiguous so every mask size fits.
        if i >= 5 and rng.random() < 0.2:
            orig_lines.append("")
    orig_lines.append(f"    return v{n - 1}")
    extra = rng.randrange(0, 4)
    pert_lines = [f"def {name}_p(k):"]
    for i in range(n + extra):
        pert_lines.append(f"    w{i} = k + {i}")
    pert_lines.append(f"    return w{n + extra - 1}")
    pair = PerturbedPair(
        original=CodeSample(
            id=f"{name}{rng.randrange(10**6)}.py",
            language=Language.PYTHON,
            text="\n".join(orig_lines) + "\n",
        ),
        perturbed=CodeSample(
            id="p", language=Language.PYTHON, text="\n".join(pert_lines) + "\n",
            lineage=("function_rename",),
        ),
        entry_points=(name,),
        function_map={name: f"{name}_p"},
    )
    return pair, rng.randrange(2**31)


def test_criterion_08_task_integrity_1000_pairs():
    with criterion(8, "reconstruction and anchor pairing over 1,000 random pairs", 30.0):
        rng = random.Random(88)
        for _ in range(1000):
            pair, seed = _random_pair(rng)
            tasks = build_tasks(pair, seed=seed)
            assert len(tasks) == 6
            by_size = {}
            for task in tasks:
                source = (
                    pair.original.text if task.variant is Variant.ORIGINAL else pair.perturbed.text
                )
                assert task.prefix + task.ground_truth + task.suffix == source
                by_size.setdefault(task.mask_lines, []).append(task)
            assert sorted(by_size) == [1, 3, 5]
            for sized in by_size.values():
                assert len(sized) == 2
                assert sized[0].region_anchor == sized[1].region_anchor


# ---------------------------------------------------------------------------
# Criterion 10: byte-identical traces under a fixed seed
# ---------------------------------------------------------------------------

def test_criterion_10_determinism(tmp_path):
    with criterion(10, "two seeded peso-run invocations produce byte-identical traces", 30.0):
        corpus = load_fixture_corpus(languages={Language.PYTHON})[:4]
        corpus_path = tmp_path / "corpus.jsonl"
        write_corpus_jsonl(corpus_path, corpus)
        outputs = []
        for tag in ("one", "two"):
            out = tmp_path / tag
            code = cli_main(
                [
                    "peso-run", "--corpus", str(corpus_path), "--engine", "rule",
                    "--seed", "42", "--equivalence", "stub", "--jobs", "2",
                    "--output-dir", str(out),
                ]
            )
            assert code == 0
            outputs.append(out)
        a, b = outputs
        trace_names = sorted(p.name for p in (a / "traces").iterdir())
        assert trace_names == sorted(p.name for p in (b / "traces").iterdir())
        assert len(trace_names) == 4
        for name in trace_names:
            assert (a / "traces" / name).read_bytes() == (b / "traces" / name).read_bytes()
        assert (a / "summary.jsonl").read_bytes() == (b / "summary.jsonl").read_bytes()
        assert (a / "perturbed.jsonl").read_bytes() == (b / "perturbed.jsonl").read_bytes()
