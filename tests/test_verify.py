import argparse
import itertools
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from codeperturb.cli import _verifier_for
from codeperturb.core import CodeSample, EquivalenceSpec, Language, Origin, PesoConfig, build_catalog
from codeperturb.errors import ConfigError, OriginalUnrunnable, RunnerFailure, ToolchainUnavailable
from codeperturb.verify import (
    ProgramRunner,
    StubVoter,
    Toolchain,
    VerifyPolicy,
    default_toolchains,
    ensure_main,
    execution_equivalence,
    syntax_check,
    verify,
    vote_equivalence,
)
from codeperturb.peso import run
from codeperturb.transform import RuleEngine

from .conftest import load_fixture_corpus

TOOLCHAINS = default_toolchains()


@pytest.fixture
def make_runner():
    """ProgramRunner factory (Python by default); closes its runners."""
    made = []

    def make(toolchain=TOOLCHAINS[Language.PYTHON]):
        made.append(ProgramRunner(toolchain))
        return made[-1]

    yield make
    for runner in made:
        runner.close()


def sample(text, lang=Language.PYTHON, sid="s.py"):
    return CodeSample(id=sid, language=lang, text=text)


def derived(base, text):
    return base.derive(text, "variables_rename", Origin.INTERMEDIATE)


# ---------------------------------------------------------------------------
# syntax_check
# ---------------------------------------------------------------------------

def test_syntax_valid_go():
    ok, _ = syntax_check(sample("package main\n\nfunc main() {\n}\n", Language.GO, "m.go"))
    assert ok


def test_syntax_python_unbalanced_parens():
    ok, diags = syntax_check(sample("def f(:\n    pass\n"))
    assert not ok
    assert any("offset" in d for d in diags)


def test_syntax_rust_missing_main_notes_injection():
    ok, diags = syntax_check(sample("fn helper() -> i32 {\n    3\n}\n", Language.RUST_LANG, "h.rs"))
    assert ok
    assert any("synthetic" in d and "main" in d for d in diags)


def test_syntax_java_filename_rule():
    java = "public class Widget {\n    public static void main(String[] a) {\n    }\n}\n"
    ok, _ = syntax_check(sample(java, Language.JAVA, "Widget.java"))
    assert ok
    ok, diags = syntax_check(sample(java, Language.JAVA, "Other.java"))
    assert not ok
    assert any("Widget" in d for d in diags)


def test_ensure_main_injects_once():
    text, injected = ensure_main("fn helper() {}\n", Language.RUST_LANG)
    assert injected and "fn main()" in text
    text2, injected2 = ensure_main(text, Language.RUST_LANG)
    assert not injected2 and text2 == text


# ---------------------------------------------------------------------------
# ProgramRunner.compile
# ---------------------------------------------------------------------------

def test_compile_check_well_formed_c(make_runner):
    if Language.C_CPP not in TOOLCHAINS:
        pytest.skip("no C toolchain")
    ok, diags = make_runner(TOOLCHAINS[Language.C_CPP]).compile(
        sample("#include <stdio.h>\nint main(void) { printf(\"hi\\n\"); return 0; }\n",
               Language.C_CPP, "p.c"),
    )
    assert ok is True and not diags


def test_compile_check_type_error_reports_stderr(make_runner):
    if Language.C_CPP not in TOOLCHAINS:
        pytest.skip("no C toolchain")
    runner = make_runner(TOOLCHAINS[Language.C_CPP])
    broken = sample("int main(void) { int x = \"nope\"nope; return 0; }\n", Language.C_CPP, "p.c")
    ok, diags = runner.compile(broken)
    assert ok is False
    assert diags[0] == "compile failed" and len(diags) > 1
    with pytest.raises(RunnerFailure, match="does not compile") as failure:
        runner.run(broken, "")
    assert diags[-1] in str(failure.value)


def test_compile_check_skipped_without_compile_step(make_runner):
    ok, diags = make_runner().compile(sample("x = 1\n"))
    assert ok is None and diags == []


def test_compile_check_toolchain_unavailable(make_runner):
    bad = Toolchain(compile_argv=("definitely-not-a-compiler", "{file}"), run_argv=("{exe}",), extension=".c")
    with pytest.raises(ToolchainUnavailable):
        make_runner(bad).compile(sample("int main(void){return 0;}", Language.C_CPP, "p.c"))


# ---------------------------------------------------------------------------
# execution_equivalence
# ---------------------------------------------------------------------------

PY_PROG = "import sys\nn = int(sys.stdin.read() or 0)\nprint(n * 2)\n"


def test_execution_identical_programs(make_runner):
    s = sample(PY_PROG)
    spec = EquivalenceSpec(input_suite=("1\n", "2\n", "40\n"))
    assert execution_equivalence(s, s, spec, make_runner()) is True


def test_execution_rename_equivalent(make_runner):
    a = sample(PY_PROG)
    b = derived(a, "import sys\nvalue = int(sys.stdin.read() or 0)\nprint(value * 2)\n")
    spec = EquivalenceSpec(input_suite=tuple(f"{i}\n" for i in range(10)))
    assert execution_equivalence(a, b, spec, make_runner()) is True


def test_execution_detects_flipped_comparison(make_runner):
    a = sample("import sys\nn = int(sys.stdin.read())\nprint('big' if n > 5 else 'small')\n")
    b = derived(a, "import sys\nn = int(sys.stdin.read())\nprint('big' if n < 5 else 'small')\n")
    spec = EquivalenceSpec(input_suite=("9\n",))
    assert execution_equivalence(a, b, spec, make_runner()) is False


def test_execution_symmetric(make_runner):
    a = sample(PY_PROG)
    b = derived(a, "import sys\nprint(int(sys.stdin.read() or 0) * 2)\n")
    spec = EquivalenceSpec(input_suite=("3\n", "5\n"))
    assert execution_equivalence(a, b, spec, make_runner()) == execution_equivalence(
        b, a, spec, make_runner()
    )


def test_execution_requires_inputs(make_runner):
    s = sample(PY_PROG)
    with pytest.raises(ConfigError):
        execution_equivalence(s, s, EquivalenceSpec(input_suite=()), make_runner())


# ---------------------------------------------------------------------------
# Voting
# ---------------------------------------------------------------------------

class FixedVoter:
    kind = "LLM_JUDGE"

    def __init__(self, voter_id, verdict):
        self.id = voter_id
        self.verdict = verdict

    def vote(self, original, candidate):
        if isinstance(self.verdict, Exception):
            raise self.verdict
        return self.verdict


@pytest.mark.parametrize("verdicts", list(itertools.product([True, False], repeat=3)))
def test_vote_majority_over_all_vectors(verdicts):
    voters = [FixedVoter(f"v{i}", v) for i, v in enumerate(verdicts)]
    _, passed, _ = vote_equivalence(sample("x=1"), derived(sample("x=1"), "y=1"), voters)
    assert passed == (sum(verdicts) >= 2)


def test_vote_transport_failure_counts_false():
    voters = [
        FixedVoter("ok", True),
        FixedVoter("boom", RuntimeError("transport down")),
        FixedVoter("ok2", True),
    ]
    votes, passed, diags = vote_equivalence(sample("x=1"), derived(sample("x=1"), "y=1"), voters)
    assert passed is True
    assert [v.verdict for v in votes] == [True, False, True]
    assert any("boom" in d for d in diags)


def test_vote_requires_three_llm_judges():
    with pytest.raises(ConfigError):
        vote_equivalence(sample("x=1"), derived(sample("x=1"), "y=1"), [FixedVoter("v", True)])


# ---------------------------------------------------------------------------
# verify() composition
# ---------------------------------------------------------------------------

def test_verify_short_circuits_on_syntax():
    base = sample(PY_PROG)
    broken = derived(base, "def f(:\n")
    calls = []

    class SpyVoter(StubVoter):
        def vote(self, original, candidate):
            calls.append(1)
            return True

    policy = VerifyPolicy(voters=[SpyVoter(), SpyVoter(), SpyVoter()])
    report = verify(base, broken, policy)
    assert not report.passed and not report.syntax_ok
    assert report.compile_ok is None and report.votes == ()
    assert calls == []


def test_verify_execution_oracle_path(make_runner):
    base = sample(PY_PROG)
    good = derived(base, "import sys\nk = int(sys.stdin.read() or 0)\nprint(k * 2)\n")
    policy = VerifyPolicy(
        equivalence_spec=EquivalenceSpec(input_suite=("4\n", "7\n")),
        runner=make_runner(),
    )
    report = verify(base, good, policy)
    assert report.passed
    assert [v.voter_id for v in report.votes] == ["execution_oracle"]


def test_verify_vote_path_majority_fail():
    base = sample(PY_PROG)
    cand = derived(base, PY_PROG + "\n")
    policy = VerifyPolicy(voters=[FixedVoter("a", True), FixedVoter("b", False), FixedVoter("c", False)])
    report = verify(base, cand, policy)
    assert report.syntax_ok and not report.passed


def test_verify_passed_implies_syntax_ok():
    base = sample(PY_PROG)
    for cand_text in (PY_PROG + "\n", "def f(:\n", "x=("):
        report = verify(base, derived(base, cand_text), VerifyPolicy())
        if report.passed:
            assert report.syntax_ok


def test_verify_stub_path_accepts():
    base = sample(PY_PROG)
    cand = derived(base, PY_PROG + "\n")
    report = verify(base, cand, VerifyPolicy())
    assert report.passed and report.votes == ()


# ---------------------------------------------------------------------------
# One runner per sample
# ---------------------------------------------------------------------------

def test_runner_pays_a_timeout_once(monkeypatch, make_runner):
    runner = make_runner(Toolchain(run_argv=(sys.executable, "{file}"), extension=".py", run_timeout=0.5))
    policy = VerifyPolicy(equivalence_spec=EquivalenceSpec(input_suite=("1\n",)), runner=runner)
    calls = []
    real_run = subprocess.run
    monkeypatch.setattr(subprocess, "run", lambda argv, **kw: calls.append(argv) or real_run(argv, **kw))
    base = sample("import time\ntime.sleep(30)\n")
    for i in (1, 2):
        with pytest.raises(OriginalUnrunnable, match="exceeded 0.5s"):
            verify(base, derived(base, f"print({i})\n"), policy)
    assert len(calls) == 1


def test_a_timed_out_candidate_is_only_rejected(make_runner):
    runner = make_runner(Toolchain(run_argv=(sys.executable, "{file}"), extension=".py", run_timeout=0.5))
    policy = VerifyPolicy(equivalence_spec=EquivalenceSpec(input_suite=("1\n",)), runner=runner)
    base = sample("print(1)\n")
    report = verify(base, derived(base, "import time\ntime.sleep(30)\nprint(1)\n"), policy)
    assert report.passed is False
    assert any("execution oracle failed" in d and "exceeded 0.5s" in d for d in report.diagnostics)
    assert verify(base, derived(base, "print(2 - 1)\n"), policy).passed


def test_cli_verifier_compiles_each_text_once_and_runs_the_original_once_per_input(monkeypatch):
    if Language.C_CPP not in TOOLCHAINS:
        pytest.skip("no C toolchain")
    original, spec = next(item for item in load_fixture_corpus() if item[0].id == "collatz.c")
    compiled, ran = [], []
    real_run = subprocess.run

    def spy(argv, **kwargs):
        if argv[0] == "gcc":
            compiled.append(Path(argv[1]).read_text())
        else:
            source = next(Path(argv[0]).parent.glob("*.c")).read_text()
            ran.append((source, kwargs["input"].decode()))
        return real_run(argv, **kwargs)

    monkeypatch.setattr(subprocess, "run", spy)
    args = argparse.Namespace(equivalence="auto", no_compile=False)
    verifier, runner = _verifier_for(args, original, spec)
    catalog = build_catalog()
    try:
        result = run(original, RuleEngine(catalog), catalog, PesoConfig(rng_seed=11, max_iter=3), verifier)
    finally:
        runner.close()
    assert sum(r.verified for r in result.records) >= 2
    assert len(compiled) > 1
    assert Counter(compiled).most_common(1)[0][1] == 1
    original_runs = Counter(stdin for source, stdin in ran if source == original.text)
    assert original_runs == Counter(spec.input_suite)
