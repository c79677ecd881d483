import ast
import hashlib
import json
import re
import sys

import pytest

from codeperturb import lexing
from codeperturb.core import CodeSample, EngineKind, Language, build_catalog
from codeperturb.errors import (
    EngineFailure,
    MalformedAnswer,
    NotApplicable,
    ParseError,
    UnsupportedCombination,
)
from codeperturb.similarity import tokenize
from codeperturb.transform import (
    RULES,
    HybridEngine,
    RuleEngine,
    parse_llm_answer,
    perturb,
    rule_engine_apply,
    synthesize_prompt,
)
from codeperturb.transform.llm import LlmEngine, ReplayTransport

from .conftest import load_fixture_corpus
from .test_transform_go_golden import CHAIN_SRC, LOOP_SRC

CATALOG = build_catalog()


def sample(text, lang=Language.PYTHON, sid="s"):
    return CodeSample(id=sid, language=lang, text=text)


def method(mid):
    return CATALOG.get(mid)


PY_SRC = """def f(a, b):
    total = 0
    for x in a:
        if x < b and x > 0:
            total += x
    return total


print(f([1, 2, 3], 10))
"""


# ---------------------------------------------------------------------------
# Rule engine contracts
# ---------------------------------------------------------------------------

def test_function_rename_preserves_normalized_tokens():
    s = sample(PY_SRC)
    out = rule_engine_apply(s, method("function_rename"), seed=7)
    assert "def f(" not in out.candidate.text
    assert tokenize(out.candidate).tokens == tokenize(s).tokens
    assert out.entry_point in out.candidate.text


def test_modify_operations_expands_compound_assignment():
    s = sample("a = 1\nb = 2\na += b\nprint(a)\n")
    out = rule_engine_apply(s, method("modify_operations"), seed=1)
    assert "a = a + b" in out.candidate.text


def test_for_while_not_applicable_without_loops():
    s = sample("x = 1\nprint(x)\n")
    with pytest.raises(NotApplicable):
        rule_engine_apply(s, method("for_while_transformation"), seed=1)


def test_swap_boolean_expression_mirrors_operands():
    s = sample("def g(a, b, c, d):\n    if a < b or c < d:\n        return 1\n    return 0\n")
    out = rule_engine_apply(s, method("swap_boolean_expression"), seed=3)
    assert "if b > a or d > c:" in out.candidate.text


def test_div_composed_if_nests_conditions():
    s = sample("def g(a, b):\n    if a and b:\n        print(1)\n")
    out = rule_engine_apply(s, method("div_composed_if"), seed=2)
    text = out.candidate.text
    assert "if a:" in text and "if b:" in text and "and" not in text


def test_extract_if_introduces_predicate_function():
    s = sample("def g(a, b):\n    if a < b:\n        return a\n    return b\n")
    out = rule_engine_apply(s, method("extract_if"), seed=4)
    text = out.candidate.text
    helper = text.split("def ", 1)[1].split("(", 1)[0]
    assert helper != "g"
    assert f"def {helper}(a, b):" in text
    assert f"if {helper}(a, b):" in text
    assert "return a < b" in text


def test_rule_engine_deterministic():
    s = sample(PY_SRC)
    for mid in ("variables_rename", "insert_junk_loop", "statement_wrapping"):
        a = rule_engine_apply(s, method(mid), seed=11)
        b = rule_engine_apply(s, method(mid), seed=11)
        assert a.candidate.text == b.candidate.text
        c = rule_engine_apply(s, method(mid), seed=12)
        assert (a.candidate.text, a.entry_point) != (c.candidate.text, "") or c.candidate.text


def test_perturb_never_mutates_input_and_grows_lineage():
    s = sample(PY_SRC)
    engine = RuleEngine(CATALOG)
    out = perturb(engine, s, method("insert_variables"), seed=5)
    assert s.text == PY_SRC and s.lineage == ()
    assert out.candidate.lineage == ("insert_variables",)
    second = perturb(engine, out.candidate, method("insert_junk_loop"), seed=6)
    assert second.candidate.lineage == ("insert_variables", "insert_junk_loop")


def test_unsupported_combination():
    engine = RuleEngine(CATALOG)
    s = sample("class A {}\n", Language.JAVA)
    with pytest.raises(UnsupportedCombination):
        perturb(engine, s, method("function_rename"), seed=1)


def test_rule_outputs_reparse():
    s = sample(PY_SRC)
    engine = RuleEngine(CATALOG)
    for m in CATALOG.methods:
        if not engine.supported(m, Language.PYTHON):
            continue
        for seed in range(4):
            try:
                out = rule_engine_apply(s, m, seed=seed)
            except NotApplicable:
                continue
            ast.parse(out.candidate.text)


def test_inserted_names_are_fresh():
    s = sample(PY_SRC)
    out = rule_engine_apply(s, method("insert_variables"), seed=9)
    added = set(out.candidate.text.split()) - set(PY_SRC.split())
    new_name = [w for w in added if "_" in w and "=" not in w]
    assert new_name
    assert all(w not in PY_SRC for w in new_name)


# ---------------------------------------------------------------------------
# Go rule engine (structural checks; no Go toolchain in this environment)
# ---------------------------------------------------------------------------

GO_SRC = """package main

import "fmt"

func pick(a int, b int) int {
	if a < b {
		return a
	}
	return b
}

func main() {
	x := 3
	x += 4
	for i := 0; i < 2; i++ {
		fmt.Println(pick(x, i))
	}
}
"""


def go_sample(text=GO_SRC):
    return sample(text, Language.GO, "m.go")


def test_go_function_rename_spares_main():
    for seed in range(8):
        out = rule_engine_apply(go_sample(), method("function_rename"), seed=seed)
        assert "func main()" in out.candidate.text
        assert "pick" not in out.candidate.text
        assert tokenize(out.candidate).tokens == tokenize(go_sample()).tokens


def test_go_modify_operations():
    out = rule_engine_apply(go_sample(), method("modify_operations"), seed=2)
    text = out.candidate.text
    assert ("x = x + 4" in text) or ("i = i + 1" in text)


def test_go_extract_if_uses_closure():
    out = rule_engine_apply(go_sample(), method("extract_if"), seed=1)
    text = out.candidate.text
    assert ":= func() bool {" in text
    assert "return a < b" in text


def test_go_statement_wrapping_never_wraps_declarations():
    for seed in range(10):
        try:
            out = rule_engine_apply(go_sample(), method("statement_wrapping"), seed=seed)
        except NotApplicable:
            continue
        added = [
            ln.strip()
            for ln in out.candidate.text.splitlines()
            if ln.strip().startswith("if true {")
        ]
        assert added
        assert ":=" not in out.candidate.text.split("if true {")[1].split("}")[0]


@pytest.mark.parametrize(
    "lang,mid",
    [(Language.C_CPP, "extract_if"), (Language.GO, "add_exception"), (Language.PYTHON, "div_loop")],
)
def test_a_pair_without_a_rule_is_unsupported(lang, mid):
    src = "int main(void) {\n    if (1 < 2) {\n        return 0;\n    }\n    return 1;\n}\n"
    text = {Language.C_CPP: src, Language.GO: GO_SRC, Language.PYTHON: PY_SRC}[lang]
    with pytest.raises(UnsupportedCombination):
        rule_engine_apply(sample(text, lang), method(mid), seed=1)


def test_go_for_while_preserves_token_multiset_mostly():
    out = rule_engine_apply(go_sample(), method("for_while_transformation"), seed=0)
    assert "for i < 2 {" in out.candidate.text
    assert "i++" in out.candidate.text


# ---------------------------------------------------------------------------
# Octal literals, C++17 init statements, one-pass renames
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "lang,src",
    [
        (Language.C_CPP, "int main(void) {\n    int mode = 010;\n    return mode - 8;\n}\n"),
        (Language.GO, "package main\n\nfunc main() {\n\tmode := 010\n\tprintln(mode - 8)\n}\n"),
    ],
    ids=["c", "go"],
)
def test_octal_literals_keep_their_value(lang, src):
    for seed in range(10):
        out = rule_engine_apply(sample(src, lang), method("equi_arithmetic_expression"), seed)
        assert "010" in out.candidate.text and "mode - 8" not in out.candidate.text


CPP17_IF_SRC = """int main() {
    int a = 3;
    if (int b = a * 2; b > 3 && a > 0) {
        return 1;
    }
    return 0;
}
"""


@pytest.mark.parametrize("mid", ["equi_boolean_logic", "div_composed_if"])
def test_an_if_with_an_init_statement_is_not_rewritten(mid):
    with pytest.raises(NotApplicable):
        rule_engine_apply(sample(CPP17_IF_SRC, Language.C_CPP), method(mid), seed=0)


def _locals_src(lang, n):
    total = " + ".join(f"v{i}" for i in range(n))
    if lang is Language.C_CPP:
        decls = "".join(f"    int v{i} = {i};\n" for i in range(n))
        return f"int main(void) {{\n{decls}    return {total};\n}}\n"
    body = "".join(f"    v{i} = {i}\n" for i in range(n))
    return f"def f():\n{body}    return {total}\n\n\nprint(f())\n"


@pytest.mark.parametrize("lang,fixture", [(Language.C_CPP, "table.c"), (Language.PYTHON, "grade_stats.py")])
def test_variables_rename_lexes_as_often_for_any_number_of_locals(lang, fixture, monkeypatch):
    calls = []
    real_lex = lexing.lex

    def counting_lex(text, language):
        calls.append(language)
        return real_lex(text, language)

    for name, mod in list(sys.modules.items()):
        if name.startswith("codeperturb") and getattr(mod, "lex", None) is real_lex:
            monkeypatch.setattr(mod, "lex", counting_lex)
    fixture_text = next(s.text for s, _ in load_fixture_corpus() if s.id == fixture)
    counts = []
    for text in (_locals_src(lang, 2), _locals_src(lang, 5), fixture_text):
        calls.clear()
        out = rule_engine_apply(sample(text, lang), method("variables_rename"), seed=0)
        assert not any(re.search(rf"\bv{i}\b", out.candidate.text) for i in range(5))
        counts.append(len(calls))
    assert counts[0] == counts[1] == counts[2]


# ---------------------------------------------------------------------------
# Prompt synthesis and answer parsing
# ---------------------------------------------------------------------------

def test_prompt_add_arguments_boundary_condition():
    bundle = synthesize_prompt(sample(PY_SRC), method("add_arguments"))
    assert "default" in bundle.task.requirements.lower()
    assert "last parameter" in bundle.task.requirements.lower()


def test_prompt_answer_instructions():
    for mid in ("function_rename", "div_loop", "extract_arithmetic"):
        bundle = synthesize_prompt(sample(PY_SRC), method(mid))
        text = bundle.answer_instructions.lower()
        assert "code" in text and "entry_point" in text


def test_prompt_role_names_language():
    bundle = synthesize_prompt(go_sample(), method("div_loop"))
    assert "Go" in bundle.role


def test_prompt_sections_nonempty():
    for m in CATALOG.methods:
        bundle = synthesize_prompt(sample(PY_SRC), m)
        assert bundle.role and bundle.task.prerequisites
        assert bundle.task.requirements and bundle.task.format_template
        assert bundle.code["full_source"] == PY_SRC
        assert bundle.answer_instructions


def test_parse_llm_answer_direct():
    code, entry = parse_llm_answer('{"code":"def g(): pass","entry_point":"g"}')
    assert code == "def g(): pass" and entry == "g"


def test_parse_llm_answer_fenced_with_prose():
    raw = (
        "Sure! Here is the perturbed file.\n\n"
        "```json\n"
        + json.dumps({"code": "def h():\n    return 2\n", "entry_point": "h"})
        + "\n```\nLet me know if you need anything else."
    )
    code, entry = parse_llm_answer(raw)
    assert entry == "h" and "return 2" in code


def test_parse_llm_answer_missing_field():
    with pytest.raises(MalformedAnswer) as err:
        parse_llm_answer('{"code":"..."}')
    assert err.value.raw == '{"code":"..."}'


# ---------------------------------------------------------------------------
# LLM engine over the replay transport
# ---------------------------------------------------------------------------

def test_llm_engine_replay(tmp_path):
    reply = {"content": json.dumps({"code": "def q():\n    return 9\n", "entry_point": "q"})}
    (tmp_path / "function_rename.json").write_text(json.dumps(reply))
    engine = LlmEngine(ReplayTransport(tmp_path))
    out = perturb(engine, sample(PY_SRC), method("function_rename"), seed=0)
    assert out.engine_used is EngineKind.LLM
    assert out.entry_point == "q"
    assert out.candidate.lineage == ("function_rename",)


def test_llm_engine_replay_exhausted(tmp_path):
    engine = LlmEngine(ReplayTransport(tmp_path))
    with pytest.raises(EngineFailure):
        engine.apply(sample(PY_SRC), method("div_loop"), seed=0)


def test_hybrid_prefers_rules(tmp_path):
    rule = RuleEngine(CATALOG)
    llm = LlmEngine(ReplayTransport(tmp_path))
    hybrid = HybridEngine(rule, llm)
    out = perturb(hybrid, sample(PY_SRC), method("function_rename"), seed=3)
    assert out.engine_used is EngineKind.RULE_BASED
    # Unsupported by rules -> falls through to the LLM.
    reply = {"content": json.dumps({"code": "def r():\n    return 1\n", "entry_point": "r"})}
    (tmp_path / "div_loop.json").write_text(json.dumps(reply))
    out2 = perturb(hybrid, sample(PY_SRC), method("div_loop"), seed=3)
    assert out2.engine_used is EngineKind.LLM


def test_hybrid_sends_rust_to_the_llm(tmp_path):
    reply = {"content": json.dumps({"code": "fn main() {}\n", "entry_point": "main"})}
    (tmp_path / "function_rename.json").write_text(json.dumps(reply))
    hybrid = HybridEngine(RuleEngine(CATALOG), LlmEngine(ReplayTransport(tmp_path)))
    rust = sample('fn main() {\n    println!("hi");\n}\n', Language.RUST_LANG, "m.rs")
    out = perturb(hybrid, rust, method("function_rename"), seed=0)
    assert out.engine_used is EngineKind.LLM


# ---------------------------------------------------------------------------
# Frozen rule outputs
# ---------------------------------------------------------------------------

# Two more sources that reach the branches the fixtures miss: a Go method
# receiver, a `var` list, a condition-only `for`, a keyed struct literal;
# C preprocessor lines, a typedef'd local, a brace-less `if`. The C one
# builds with `gcc -Wall`.
GO_RECEIVER_SRC = """package main

import "fmt"

type counter struct {
\thits  int
\tlimit int
}

func (c *counter) bump(n int) int {
\tvar a, b = 0, 1
\tif a >= 0 && n > 0 {
\t\tc.hits += n
\t}
\tx := 0
\tfor x < n {
\t\ta, b = b, a+b
\t\tx++
\t}
\treturn a + b + c.hits
}

func main() {
\tc := counter{hits: 2, limit: 10}
\tfmt.Println(c.bump(5), c.limit)
}
"""

C_MACRO_SRC = """#include <stdio.h>

#define LIMIT 12

typedef long wide;

static int scale(int a, int b) {
    if (a > LIMIT) return a - LIMIT;
    wide acc = 3;
    while (a && b) {
        acc += a * 2;
        a--;
        b = b / 2;
    }
    return (int)acc;
}

int main(void) {
    int total = 0;
    int k = 5;
    while (k > 0) {
        total += scale(k, 7);
        k--;
    }
    printf("%d\\n", total);
    return 0;
}
"""

# sha256 of every rule's outcome on the fixtures, the Go golden sources and
# the two sources above, seeds 0-4. A change that alters a rule's output on
# purpose updates this constant and says why in CHANGES.md.
RULE_OUTPUT_DIGEST = "7de95daa3cc2252a81e383513379afd9106476bb3dbbd905a5ddb32a2e6eac97"


def test_every_rule_output_is_frozen():
    inputs = [(s.id, s.language, s.text) for s, _ in load_fixture_corpus()]
    inputs += [("go/loop", Language.GO, LOOP_SRC), ("go/chain", Language.GO, CHAIN_SRC)]
    inputs += [("go/receiver", Language.GO, GO_RECEIVER_SRC), ("c/macro", Language.C_CPP, C_MACRO_SRC)]
    digest = hashlib.sha256()
    cases = 0
    for sid, language, text in inputs:
        for mid in sorted(RULES[language]):
            for seed in range(5):
                try:
                    out = rule_engine_apply(sample(text, language, sid), method(mid), seed)
                    row = [sid, mid, seed, out.candidate.text, out.entry_point]
                except (NotApplicable, ParseError) as exc:
                    row = [sid, mid, seed, type(exc).__name__, str(exc)]
                digest.update(json.dumps(row).encode() + b"\n")
                cases += 1
    assert cases == 1975
    assert digest.hexdigest() == RULE_OUTPUT_DIGEST
