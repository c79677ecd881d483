import ast
import contextlib
import hashlib
import io
import json
import random
import re
import shutil
import subprocess
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
from codeperturb.transform import RULES, hybrid_engine, perturb, rule_engine_apply
from codeperturb.transform.llm import ReplayTransport, llm_engine
from codeperturb.transform.prompts import parse_llm_answer, synthesize_prompt

from .conftest import load_fixture_corpus
from .test_transform_go_golden import CHAIN_SRC, LOOP_SRC
from .test_verify import DEEP_SOURCES

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


COMPREHENSION_IF_SRC = """def f(xs):
    if any(x > 2 for x in xs):
        return 1
    if [y for y in xs if y < 0] or {z: z for z in xs} == {0: 0}:
        return 2
    if {w for w in xs} == {5} or (lambda v: v)(xs) == [4]:
        return 3
    if sum(xs) > 10:
        return 4
    return 0


print(f([1, 2, 3]), f([-1]), f([0]), f([5]), f([4]), f([2, 2, 2, 2, 2, 1]), f([]))
"""


def _stdout_of(text):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(text, "<candidate>", "exec"), {"__name__": "__main__"})
    return out.getvalue()


@pytest.mark.parametrize("seed", range(8))
def test_extract_if_never_passes_comprehension_or_lambda_bound_names(seed):
    out = rule_engine_apply(sample(COMPREHENSION_IF_SRC), method("extract_if"), seed=seed)
    assert _stdout_of(out.candidate.text) == _stdout_of(COMPREHENSION_IF_SRC)


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
    out = perturb(rule_engine_apply, s, method("insert_variables"), seed=5)
    assert s.text == PY_SRC and s.lineage == ()
    assert out.candidate.lineage == ("insert_variables",)
    second = perturb(rule_engine_apply, out.candidate, method("insert_junk_loop"), seed=6)
    assert second.candidate.lineage == ("insert_variables", "insert_junk_loop")


def test_unsupported_combination():
    s = sample("class A {}\n", Language.JAVA)
    with pytest.raises(UnsupportedCombination, match="^rule engine cannot apply function_rename to java$"):
        perturb(rule_engine_apply, s, method("function_rename"), seed=1)


def test_rule_outputs_reparse():
    s = sample(PY_SRC)
    for m in CATALOG.methods:
        if m.id not in RULES[Language.PYTHON]:
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


GO_LOCAL_STRUCT_SRC = """package main

import "fmt"

func main() {
\ttype point struct {
\t\tx int
\t\ty int
\t}
\tp := point{1, 2}
\tfmt.Println(p.x + p.y)
}
"""

C_LOCAL_STRUCT_SRC = """#include <stdio.h>

int main(void) {
    struct point {
        int x;
        int y;
    };
    struct point p = {1, 2};
    printf("%d\\n", p.x + p.y);
    return 0;
}
"""


@pytest.mark.parametrize(
    "lang,src,header",
    [(Language.GO, GO_LOCAL_STRUCT_SRC, "\tif true {"), (Language.C_CPP, C_LOCAL_STRUCT_SRC, "    if (1) {")],
    ids=["go", "c"],
)
def test_statement_wrapping_leaves_a_local_struct_body_alone(lang, src, header, tmp_path):
    for seed in range(5):
        text = rule_engine_apply(sample(src, lang), method("statement_wrapping"), seed=seed).candidate.text
        lines = text.splitlines()
        # The one wrapped statement is the print call, one level in.
        wrapped = lines[lines.index(header) + 1].strip()
        assert wrapped.startswith(("fmt.Println(", "printf("))
        if lang is Language.C_CPP and shutil.which("gcc"):
            (tmp_path / "w.c").write_text(text)
            build = subprocess.run(["gcc", str(tmp_path / "w.c"), "-o", str(tmp_path / "w")],
                                   capture_output=True)
            assert build.returncode == 0, build.stderr.decode()


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


# An else-if whose body is one statement without braces.
BRACELESS_ELSE_IF_SRC = "int f(int a, int b) {\n    if (a) {\n        a = 2;\n    } else if (b) return 1;\n    return 0;\n}\n"


@pytest.mark.parametrize("tail", [
    "",  # the chain's walk ran off the end of the text
    "\nint g(void) {\n    return 3;\n}\n",  # the walk took g's body as the chain's, and nested g in f
], ids=["last-function", "function-after"])
def test_an_else_if_chain_with_a_braceless_body_is_no_site(tail):
    with pytest.raises(NotApplicable):
        rule_engine_apply(sample(BRACELESS_ELSE_IF_SRC + tail, Language.C_CPP), method("div_if_else"), seed=0)


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


def _many_functions_src(n):
    """A module of n functions, each offering a site to every Python rule."""
    fns = [
        f"""def f{i}(a, b):
    total = 0
    for x in a:
        if x == 0:
            continue
        if x < b and x > {i + 2}:
            total += x
        if x > 100:
            total -= 1
        elif x < -100:
            total += 1
    return total
"""
        for i in range(n)
    ]
    return "\n\n".join(fns) + "\n\nprint(f0([1, 2, 3], 10))\n"


def test_each_python_rewrite_walks_the_module_at_most_three_times_and_never_lexes(monkeypatch):
    walks, lexes = [], []
    real_walk, real_lex = ast.walk, lexing.lex

    def counting(walk):
        def counting_walk(node):
            if isinstance(node, ast.Module):
                walks.append(node)
            return walk(node)

        return counting_walk

    def counting_lex(text, language):
        lexes.append(language)
        return real_lex(text, language)

    monkeypatch.setattr(ast, "walk", counting(real_walk))
    for name, mod in list(sys.modules.items()):
        if name.startswith("codeperturb") and getattr(mod, "lex", None) is real_lex:
            monkeypatch.setattr(mod, "lex", counting_lex)
    text = _many_functions_src(30)
    counts = {}
    for mid, rewrite in sorted(RULES[Language.PYTHON].items()):
        walks.clear()
        lexes.clear()
        new_text, _ = rewrite(text, random.Random(0))
        assert new_text != text, mid
        counts[mid] = (len(walks), len(lexes))
    assert {mid: c for mid, c in counts.items() if c[0] > 3 or c[1] > 0} == {}


# ast reports columns in UTF-8 bytes; on a line with a non-ASCII character
# before the site they run ahead of the character offsets the rules splice at.

def test_equi_arithmetic_expression_splices_the_literal_after_a_non_ascii_character():
    text = 'def f(x):\n    s = "é"; return x * 7 + len(s)\n'
    new_text, entry = RULES[Language.PYTHON]["equi_arithmetic_expression"](text, random.Random(0))
    m = re.fullmatch(r'def f\(x\):\n    s = "é"; return x \* \((\d) \+ (\d)\) \+ len\(s\)\n', new_text)
    assert m and int(m[1]) + int(m[2]) == 7, new_text
    assert entry == "f"
    scope = {}
    exec(new_text, scope)
    assert scope["f"](3) == 22


def test_swap_boolean_expression_mirrors_comparisons_after_a_non_ascii_character():
    text = 'def g(x):\n    if "ü" and x > 3 and x < 10:\n        return 1\n    return 0\n'
    new_text, entry = RULES[Language.PYTHON]["swap_boolean_expression"](text, random.Random(0))
    assert new_text == 'def g(x):\n    if "ü" and 3 < x and 10 > x:\n        return 1\n    return 0\n'
    assert entry == "g"


def _python_run(text, tmp_path, stdin_text=""):
    """(stdout, exit status) of `text` run as a program by plain subprocess."""
    path = tmp_path / "prog.py"
    path.write_bytes(text.encode())
    done = subprocess.run([sys.executable, str(path)], input=stdin_text.encode(), capture_output=True, timeout=30)
    return done.stdout, done.returncode


def _outputs_that_run_differently(mid, text, seeds, tmp_path):
    """The seeds whose rewrite of `text` runs unlike `text`; each must apply."""
    expected = _python_run(text, tmp_path)
    assert expected[1] == 0
    differing = []
    for seed in seeds:
        new_text, _ = RULES[Language.PYTHON][mid](text, random.Random(seed))
        if _python_run(new_text, tmp_path) != expected:
            differing.append(seed)
    return differing


# Renames read the names of the syntax tree, so they reach f-strings and
# follow scopes.
FSTRING_LOCAL_SRC = """def show(values):
    total = 0
    for v in values:
        total += v
    label = "sum"
    return f"{label}: {total:>6} of {len(values)}"


print(show([3, 4, 5]))
"""

FSTRING_CALL_SRC = """def helper(x):
    return x * 2


def report(v):
    return f"{helper(v)}"


def main():
    print(report(4))


main()
"""

NESTED_GLOBAL_SRC = """g = 5


def outer(x):
    def inner(y):
        g = y + 1
        return g

    return inner(x) + g


print(outer(2))
"""


# A nested class's assignments make attributes, which a rename never reaches.
NESTED_CLASS_SRC = """def tally(values):
    count = len(values)
    total = count + 1

    class Box:
        count = 0

    Box.count += total
    return Box.count


print(tally([1, 2]))
"""


# Defaults and annotations are read in the scope that encloses the def.
DEFAULT_SRC = """limit = 3


def f(n=limit):
    limit = n + 1
    return limit


print(f())
"""

ANNOTATION_SRC = """kind = int


def f(n: kind = 2) -> kind:
    kind = n * 2
    return kind


print(f(), f.__annotations__)
"""


@pytest.mark.parametrize(
    "mid,text",
    [("variables_rename", FSTRING_LOCAL_SRC), ("function_rename", FSTRING_CALL_SRC),
     ("variables_rename", NESTED_GLOBAL_SRC), ("variables_rename", NESTED_CLASS_SRC),
     ("variables_rename", DEFAULT_SRC), ("variables_rename", ANNOTATION_SRC)],
    ids=["fstring-local", "fstring-call", "nested-assignment-of-a-global", "nested-class-attribute",
         "default", "annotation"],
)
def test_renames_keep_what_the_program_prints(mid, text, tmp_path):
    assert _outputs_that_run_differently(mid, text, range(20), tmp_path) == []


# Re-indenting the lines of a statement would change the value of a string
# literal that spans them; each text also holds a site without one.
MULTILINE_STRING_SRC = {
    "add_exception": 'def f():\n    s = """a\nb"""\n    return s\n\n\nprint(repr(f()))\n',
    "statement_wrapping": 'def f():\n    s = """a\nb"""\n    return s\n\n\nprint(repr(f()))\n',
    "div_composed_if": """def f(x):
    out = b""
    if x > 0 and x < 5:
        out = b\"\"\"low
band\"\"\"
    if x > 1 and x < 9:
        out += b"!"
    return out


print(repr(f(3)))
""",
    "div_if_else": """def f(x):
    if x > 5:
        return "big"
    elif x > 2:
        return f\"\"\"mid
{x}\"\"\"
    return "small"


def g(x):
    if x > 5:
        return 1
    elif x > 2:
        return 2
    return 3


print(repr(f(3)), g(3))
""",
    "if_continue_to_if_else": """def f(values):
    out = []
    for v in values:
        if v < 0:
            continue
        out.append(\"\"\"item
%d\"\"\" % v)
    for v in values:
        if v > 5:
            continue
        out.append(v)
    return out


print(repr(f([-1, 2, 7])))
""",
}


@pytest.mark.parametrize("mid", sorted(MULTILINE_STRING_SRC))
def test_rules_that_reindent_code_keep_multi_line_strings(mid, tmp_path):
    assert _outputs_that_run_differently(mid, MULTILINE_STRING_SRC[mid], range(10), tmp_path) == []


def test_a_name_an_fstring_prints_with_its_value_is_never_renamed(tmp_path):
    # f"{c=}" prints "c=4": renaming c would change the output.
    text = 'def f(a):\n    b = a + 1\n    c = b * 2\n    return f"{c=}"\n\n\nprint(f(1))\n'
    assert _outputs_that_run_differently("variables_rename", text, range(10), tmp_path) == []
    text = text.replace("    b = a + 1\n", "").replace("b * 2", "a * 2")
    with pytest.raises(NotApplicable):
        RULES[Language.PYTHON]["variables_rename"](text, random.Random(0))


def test_rules_place_sites_on_lone_carriage_return_line_ends(tmp_path):
    # ast ends a line at "\r" as at "\n"; a site's offsets must agree.
    text = "def f(a):\r    b = a + 7\r    return b\r\rprint(f(1))\r"
    new_text, _ = RULES[Language.PYTHON]["equi_arithmetic_expression"](text, random.Random(0))
    assert re.fullmatch(r"def f\(a\):\r    b = a \+ \(\d \+ \d\)\r    return b\r\rprint\(f\(1\)\)\r", new_text)
    for mid in ("equi_arithmetic_expression", "insert_variables", "add_exception", "variables_rename"):
        assert _outputs_that_run_differently(mid, text, range(3), tmp_path) == [], mid


@pytest.mark.parametrize("mid", ["insert_variables", "insert_junk_loop", "add_exception"])
def test_inserted_code_takes_the_indentation_of_tab_indented_code(mid, tmp_path):
    text = "def f(a):\n\tb = a + 7\n\treturn b\n\n\nprint(f(1))\n"
    assert _outputs_that_run_differently(mid, text, range(3), tmp_path) == []


def _reindented(text, unit):
    """`text` with each four-space level of line indentation spelled `unit`."""
    return re.sub(r"(?m)^(?:    )+", lambda m: unit * (len(m[0]) // 4), text)


# The fixtures in other indentation units and line ends. Rules indent what
# they add by the module's own unit and split lines where ast does.
LAYOUTS = {
    "tabs": lambda text: _reindented(text, "\t"),
    "two_spaces": lambda text: _reindented(text, "  "),
    "lone_cr": lambda text: text.replace("\n", "\r"),
    "tabs_and_lone_cr": lambda text: _reindented(text, "\t").replace("\n", "\r"),
}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_every_rule_output_compiles_in_other_indentation_and_line_ends(layout):
    applied, broken = 0, []
    for original, _ in load_fixture_corpus(languages={Language.PYTHON}):
        text = LAYOUTS[layout](original.text)
        compile(text, original.id, "exec")
        for mid, rewrite in sorted(RULES[Language.PYTHON].items()):
            for seed in (0, 1):
                try:
                    new_text, _ = rewrite(text, random.Random(seed))
                except NotApplicable:
                    continue
                applied += 1
                try:
                    compile(new_text, original.id, "exec")
                except SyntaxError as exc:
                    broken.append((original.id, mid, seed, exc.msg))
    assert applied > 300
    assert broken == []


@pytest.mark.parametrize("mid", [
    "add_exception", "div_composed_if", "div_if_else", "for_while_transformation", "if_continue_to_if_else",
    "statement_wrapping",
])
def test_rewrites_in_other_indentation_and_line_ends_run_as_the_original(mid, tmp_path):
    corpus = load_fixture_corpus(languages={Language.PYTHON})
    for k, layout in enumerate(sorted(LAYOUTS)):
        rewrites = []
        for original, suite in corpus:
            text = LAYOUTS[layout](original.text)
            with contextlib.suppress(NotApplicable):
                rewrites.append((text, RULES[Language.PYTHON][mid](text, random.Random(0))[0], suite))
        text, new_text, suite = rewrites[k % len(rewrites)]  # another fixture for each layout
        for stdin_text in suite:
            expected = _python_run(text, tmp_path, stdin_text)
            assert expected[1] == 0
            assert _python_run(new_text, tmp_path, stdin_text) == expected, (layout, stdin_text)


@pytest.mark.parametrize("sid", sorted(DEEP_SOURCES))
def test_rules_on_a_deeply_nested_text_rewrite_it_or_decline(sid):
    for mid, rewrite in sorted(RULES[Language.PYTHON].items()):
        with contextlib.suppress(NotApplicable, ParseError):
            rewrite(DEEP_SOURCES[sid], random.Random(0))


def test_a_text_that_does_not_parse_is_parsed_once(monkeypatch):
    from codeperturb import analysis

    text = "def f(x):\n    return x +\n"
    analysis._views.clear()
    parsed, real_parse = [], ast.parse
    monkeypatch.setattr(ast, "parse", lambda source, *args: parsed.append(source) or real_parse(source, *args))
    for mid, rewrite in sorted(RULES[Language.PYTHON].items()):
        with pytest.raises(ParseError, match="line 2"):
            rewrite(text, random.Random(0))
    with pytest.raises(ParseError):
        analysis.find_functions(text, Language.PYTHON)
    assert parsed == [text]
    # Each raise starts a fresh traceback instead of growing the kept one.
    depths = []
    for _ in range(2):
        with pytest.raises(SyntaxError) as info:
            analysis.python_view(text)
        depths.append(len(info.traceback))
    assert depths[0] == depths[1]
    assert (info.value.lineno, info.value.offset) == (2, 15)


# A statement followed by `; statement` on its line is no site: wrapping it
# would carry the rest of the line into the new block.
SEMICOLON_JOINED_SRC = {
    # y = 2 would follow the handler's raise, so that y is unbound.
    "add_exception": "def f():\n    x = 1; y = 2\n    return x + y\n\n\nprint(f())\n",
    # break would end a wrapping for loop instead of the outer one.
    "statement_wrapping": "total = 0\nfor i in range(5):\n    total += i; break\nprint(total)\n",
}


@pytest.mark.parametrize("mid", sorted(SEMICOLON_JOINED_SRC))
def test_rules_never_split_semicolon_joined_statements(mid, tmp_path):
    assert _outputs_that_run_differently(mid, SEMICOLON_JOINED_SRC[mid], range(10), tmp_path) == []


# ---------------------------------------------------------------------------
# Prompt synthesis and answer parsing
# ---------------------------------------------------------------------------

def _paragraph(user, label):
    """The paragraph of a user prompt that starts with `label`."""
    [text] = [p for p in user.split("\n\n") if p.startswith(label)]
    return text[len(label):]


def test_prompt_add_arguments_boundary_condition():
    _, user = synthesize_prompt(sample(PY_SRC), method("add_arguments"))
    requirements = _paragraph(user, "Requirements: ").lower()
    assert "default" in requirements
    assert "last parameter" in requirements


def test_prompt_answer_instructions():
    for mid in ("function_rename", "div_loop", "extract_arithmetic"):
        _, user = synthesize_prompt(sample(PY_SRC), method(mid))
        text = user.split("\n\n")[-1].lower()
        assert "code" in text and "entry_point" in text


def test_prompt_role_names_language():
    system, user = synthesize_prompt(go_sample(), method("div_loop"))
    assert "Go" in system
    assert user.startswith(system + "\n\n")


def test_prompt_sections_nonempty():
    for m in CATALOG.methods:
        system, user = synthesize_prompt(sample(PY_SRC), m)
        assert system
        for label in ("Prerequisites: ", "Requirements: ", "Format: "):
            assert _paragraph(user, label)
        assert "Code:\n```\n" + PY_SRC + "\n```" in user
        assert user.split("\n\n")[-1]


# sha256 over the (system, user) pair of every method in every language,
# for one small text: any change to the bytes of a prompt changes it.
PROMPT_DIGEST = "f439c7af719e2acb3a21edc8b88622d8fe57632f10cf079e80e4a23803d549f0"


def test_prompt_bytes_are_frozen():
    pairs = (
        repr(synthesize_prompt(CodeSample(id="x", language=lang, text="int main() {}\n"), m))
        for lang in Language
        for m in CATALOG.methods
    )
    assert hashlib.sha256("\n".join(pairs).encode()).hexdigest() == PROMPT_DIGEST


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
    engine = llm_engine(ReplayTransport(tmp_path))
    out = perturb(engine, sample(PY_SRC), method("function_rename"), seed=0)
    assert out.engine_used is EngineKind.LLM
    assert out.entry_point == "q"
    assert out.candidate.lineage == ("function_rename",)


def test_llm_engine_replay_exhausted(tmp_path):
    engine = llm_engine(ReplayTransport(tmp_path))
    with pytest.raises(EngineFailure):
        engine(sample(PY_SRC), method("div_loop"), seed=0)


def test_replay_replies_are_chosen_by_sample_not_by_the_order_of_requests(tmp_path):
    # "src/a.py" has its own replies, in the directory its safe name
    # gives; "b.py" has none, so it gets the shared ones at the top.
    for directory, name in ((tmp_path / "src_a.py", "a"), (tmp_path, "shared")):
        directory.mkdir(exist_ok=True)
        for k in range(2):
            reply = {"code": f"def {name}{k}():\n    return {k}\n", "entry_point": f"{name}{k}"}
            (directory / f"function_rename-{k}.json").write_text(json.dumps({"content": json.dumps(reply)}))
    a, b = sample(PY_SRC, sid="src/a.py"), sample(PY_SRC, sid="b.py")
    for order in ((a, b, a, b), (b, a, b, a), (b, b, a, a)):
        engine = llm_engine(ReplayTransport(tmp_path))
        got = {}
        for s in order:
            got.setdefault(s.id, []).append(engine(s, method("function_rename"), seed=0).entry_point)
        assert got == {"src/a.py": ["a0", "a1"], "b.py": ["shared0", "shared1"]}
    with pytest.raises(EngineFailure, match="request 3 of src/a.py"):
        engine(a, method("function_rename"), seed=0)


def test_hybrid_prefers_rules(tmp_path):
    hybrid = hybrid_engine(llm_engine(ReplayTransport(tmp_path)))
    out = perturb(hybrid, sample(PY_SRC), method("function_rename"), seed=3)
    assert out.engine_used is EngineKind.RULE_BASED
    # Unsupported by rules -> falls through to the LLM.
    reply = {"content": json.dumps({"code": "def r():\n    return 1\n", "entry_point": "r"})}
    (tmp_path / "div_loop.json").write_text(json.dumps(reply))
    out2 = perturb(hybrid, sample(PY_SRC), method("div_loop"), seed=3)
    assert out2.engine_used is EngineKind.LLM


def test_hybrid_sends_a_rule_that_finds_no_site_to_the_caller():
    asked = []
    hybrid = hybrid_engine(lambda *call: asked.append(call))
    with pytest.raises(NotApplicable):
        perturb(hybrid, sample("x = 1\nprint(x)\n"), method("modify_operations"), seed=0)
    assert asked == []


def test_hybrid_sends_rust_to_the_llm(tmp_path):
    reply = {"content": json.dumps({"code": "fn main() {}\n", "entry_point": "main"})}
    (tmp_path / "function_rename.json").write_text(json.dumps(reply))
    hybrid = hybrid_engine(llm_engine(ReplayTransport(tmp_path)))
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


def test_a_brace_rewrite_lexes_its_text_once(monkeypatch):
    """The rule and the function list read the same tokens."""
    scanned, real_scan = [], lexing.scan
    monkeypatch.setattr(lexing, "scan", lambda text, *args: scanned.append(text) or real_scan(text, *args))
    for language, text in ((Language.GO, CHAIN_SRC), (Language.GO, GO_RECEIVER_SRC), (Language.C_CPP, C_MACRO_SRC)):
        for mid, rewrite in sorted(RULES[language].items()):
            scanned.clear()
            with contextlib.suppress(NotApplicable):
                rewrite(text, random.Random(0))
            assert scanned == [text], (language, mid)
