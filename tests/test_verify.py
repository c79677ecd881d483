import argparse
import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from codeperturb.analysis import PythonView, find_functions
from codeperturb.cli import _verifier_for
from codeperturb.core import CodeSample, Language, PesoConfig, build_catalog
from codeperturb.errors import ConfigError, OriginalUnrunnable, ParseError, RunnerFailure, ToolchainUnavailable
from codeperturb.verify import (
    ForkServer,
    ProgramRunner,
    Toolchain,
    default_toolchains,
    ensure_main,
    execution_equivalence,
    syntax_check,
    verify,
)
from codeperturb.peso import run
from codeperturb.transform import rule_engine_apply

from .conftest import load_fixture_corpus

TOOLCHAINS = default_toolchains()


@pytest.fixture
def make_runner(servers):
    """ProgramRunner factory (Python by default); closes its runners."""
    made = []

    def make(toolchain=TOOLCHAINS[Language.PYTHON]):
        made.append(ProgramRunner(toolchain, servers))
        return made[-1]

    yield make
    for runner in made:
        runner.close()


def sample(text, lang=Language.PYTHON, sid="s.py"):
    return CodeSample(id=sid, language=lang, text=text)


def derived(base, text):
    return base.derive(text, "variables_rename")


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


# Python texts that fail the parse or only the compiler, with what
# syntax_check and find_functions report: None where the text parses, so
# that find_functions does not raise.
SYNTAX_CASES = [
    ("def f(:\n    pass\n", "syntax error at line 1, offset 7: invalid syntax", "invalid syntax (<unknown>, line 1)"),
    ("x = 1\nreturn x\n", "syntax error at line 2, offset 1: 'return' outside function", None),
    ("nonlocal x\n", "syntax error at line 1, offset 1: nonlocal declaration not allowed at module level", None),
    ("x = 1\nif x:\n    break\n", "syntax error at line 3, offset 5: 'break' outside loop", None),
    # The compiler counts columns in UTF-8 bytes: 'return' starts at character 9.
    ("s = 'é'; return 1\n", "syntax error at line 1, offset 11: 'return' outside function", None),
]


@pytest.mark.parametrize("text, diagnostic, parse_error", SYNTAX_CASES)
def test_python_syntax_failures_keep_their_diagnostics(text, diagnostic, parse_error):
    assert syntax_check(sample(text)) == (False, [diagnostic])
    if parse_error is None:
        assert find_functions(text, Language.PYTHON) == []
        return
    with pytest.raises(ParseError) as lookup:
        find_functions(text, Language.PYTHON)
    assert str(lookup.value) == f"cannot parse: {parse_error}"


def test_syntax_check_accepts_a_valid_python_text_twice():
    text = "def f(x):\n    return x\n\n\nprint(f(2))\n"
    assert syntax_check(sample(text)) == (True, [])
    assert syntax_check(sample(text)) == (True, [])


# Valid Python whose syntax tree nests too deeply for compile(tree), and
# texts that nest too deeply for the parser itself.
DEEP_SOURCES = {
    "sum_1000.py": "def f(a):\n    b = a + 1\n    return b\n\n\nx = 2" + " + 2" * 1000 + "\nprint(f(x))\n",
    "sum_100000.py": "def f(a):\n    b = a + 1\n    return b\n\n\nx = 2" + " + 2" * 100000 + "\nprint(f(x))\n",
    "negations_200000.py": "x = " + "-" * 200000 + "1\nprint(x)\n",
    "compare_1000.py": "def f(a):\n    if a > 2" + " + 2" * 1000 + ":\n        return 1\n    return 0\n\n\nprint(f(3))\n",
}


def _text_compiles(text):
    try:
        compile(text, "<deep>", "exec")
    except (SyntaxError, RecursionError, MemoryError):
        return False
    return True


@pytest.mark.parametrize("sid", sorted(DEEP_SOURCES))
def test_a_deeply_nested_text_gets_the_verdict_of_compiling_the_text(sid):
    text = DEEP_SOURCES[sid]
    ok, diagnostics = syntax_check(CodeSample(id=sid, language=Language.PYTHON, text=text))
    assert ok is _text_compiles(text)
    assert ok or diagnostics
    try:
        find_functions(text, Language.PYTHON)
    except ParseError:  # what an unparsable text raises
        assert not ok


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
    suite = ("1\n", "2\n", "40\n")
    assert execution_equivalence(s, s, suite, make_runner()) is True


def test_execution_rename_equivalent(make_runner):
    a = sample(PY_PROG)
    b = derived(a, "import sys\nvalue = int(sys.stdin.read() or 0)\nprint(value * 2)\n")
    suite = tuple(f"{i}\n" for i in range(10))
    assert execution_equivalence(a, b, suite, make_runner()) is True


def test_execution_detects_flipped_comparison(make_runner):
    a = sample("import sys\nn = int(sys.stdin.read())\nprint('big' if n > 5 else 'small')\n")
    b = derived(a, "import sys\nn = int(sys.stdin.read())\nprint('big' if n < 5 else 'small')\n")
    suite = ("9\n",)
    assert execution_equivalence(a, b, suite, make_runner()) is False


def test_execution_symmetric(make_runner):
    a = sample(PY_PROG)
    b = derived(a, "import sys\nprint(int(sys.stdin.read() or 0) * 2)\n")
    suite = ("3\n", "5\n")
    assert execution_equivalence(a, b, suite, make_runner()) == execution_equivalence(
        b, a, suite, make_runner()
    )


def test_execution_requires_inputs(make_runner):
    s = sample(PY_PROG)
    with pytest.raises(ConfigError):
        execution_equivalence(s, s, (), make_runner())


# ---------------------------------------------------------------------------
# verify() composition
# ---------------------------------------------------------------------------

def test_verify_short_circuits_on_syntax():
    base = sample(PY_PROG)
    broken = derived(base, "def f(:\n")
    calls = []

    class SpyRunner:
        def compile(self, sample):
            calls.append("compile")
            return True, []

        def run(self, sample, stdin_text):
            calls.append("run")
            return "", 0

    report = verify(base, broken, SpyRunner(), ("4\n",))
    assert not report.passed and not report.syntax_ok
    assert report.compile_ok is None and report.behaviour_ok is None
    assert calls == []


def test_verify_execution_oracle_path(make_runner):
    base = sample(PY_PROG)
    good = derived(base, "import sys\nk = int(sys.stdin.read() or 0)\nprint(k * 2)\n")
    report = verify(base, good, make_runner(), ("4\n", "7\n"))
    assert report.passed and report.behaviour_ok is True
    assert report.to_dict()["votes"] == [{"voter_id": "execution_oracle", "verdict": True}]


def test_verify_passed_implies_syntax_ok():
    base = sample(PY_PROG)
    for cand_text in (PY_PROG + "\n", "def f(:\n", "x=("):
        report = verify(base, derived(base, cand_text))
        if report.passed:
            assert report.syntax_ok


def test_verify_stub_path_accepts():
    base = sample(PY_PROG)
    cand = derived(base, PY_PROG + "\n")
    report = verify(base, cand)
    assert report.passed and report.behaviour_ok is None
    assert report.to_dict()["votes"] == []


# ---------------------------------------------------------------------------
# One runner per sample
# ---------------------------------------------------------------------------

def test_runner_pays_a_timeout_once(monkeypatch, make_runner):
    runner = make_runner(Toolchain(run_argv=(sys.executable, "{file}"), extension=".py", run_timeout=0.5))
    suite = ("1\n",)
    calls = []
    real_launch = ForkServer.launch
    monkeypatch.setattr(ForkServer, "launch", lambda self, req: calls.append(req) or real_launch(self, req))
    base = sample("import time\ntime.sleep(30)\n")
    for i in (1, 2):
        with pytest.raises(OriginalUnrunnable, match="exceeded 0.5s"):
            verify(base, derived(base, f"print({i})\n"), runner, suite)
    assert len(calls) == 1


def test_a_timed_out_candidate_is_only_rejected(make_runner):
    runner = make_runner(Toolchain(run_argv=(sys.executable, "{file}"), extension=".py", run_timeout=0.5))
    suite = ("1\n",)
    base = sample("print(1)\n")
    report = verify(base, derived(base, "import time\ntime.sleep(30)\nprint(1)\n"), runner, suite)
    assert report.passed is False and report.behaviour_ok is False
    assert any("execution oracle failed" in d and "exceeded 0.5s" in d for d in report.diagnostics)
    assert verify(base, derived(base, "print(2 - 1)\n"), runner, suite).passed


def test_cli_verifier_compiles_each_text_once_and_runs_the_original_once_per_input(monkeypatch, servers):
    if Language.C_CPP not in TOOLCHAINS:
        pytest.skip("no C toolchain")
    original, suite = next(item for item in load_fixture_corpus() if item[0].id == "collatz.c")
    compiled, ran, reran = [], [], []
    real_run, real_launch = subprocess.run, ForkServer.launch

    def compile_spy(argv, **kwargs):
        assert argv[0] == "gcc"
        compiled.append(Path(argv[1]).read_text())
        return real_run(argv, **kwargs)

    def launch_spy(self, request):
        source = next(Path(request["argv"][0]).parent.glob("*.c")).read_text()
        (reran if self.hash_seed else ran).append((source, Path(request["stdin"]).read_text()))
        return real_launch(self, request)

    monkeypatch.setattr(subprocess, "run", compile_spy)
    monkeypatch.setattr(ForkServer, "launch", launch_spy)
    args = argparse.Namespace(equivalence="auto")
    verifier, runner = _verifier_for(args, original, suite, TOOLCHAINS, servers)
    catalog = build_catalog()
    try:
        result = run(original, rule_engine_apply, catalog, PesoConfig(rng_seed=11, max_iter=3), verifier)
    finally:
        runner.close()
    assert sum(r.verified for r in result.records) >= 2
    assert len(compiled) > 1
    assert Counter(compiled).most_common(1)[0][1] == 1
    original_runs = Counter(stdin for source, stdin in ran if source == original.text)
    assert original_runs == Counter(suite)
    # The one check run of the first input on a server with another hash seed.
    assert reran == [(original.text, suite[0])]


def test_walk_lists_every_node_in_ast_walk_order(fixture_corpus):
    """A view's nodes, merged from its statements' levels, in ast.walk order."""
    texts = [sample.text for sample, _ in fixture_corpus if sample.language is Language.PYTHON]
    for text in [*texts, "", "f(a, *b, k=[c, d][0])\n@d\nclass C:\n    x: int = 1\n"]:
        view = PythonView(text)
        assert view.nodes == list(ast.walk(view.tree)), text
