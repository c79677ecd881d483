"""Golden outputs for the Go structural transforms.

No Go toolchain exists in this environment, so these transforms are pinned
by exact expected text (hand-reviewed for validity and equivalence) on top
of the lexical checks in test_transform.py.
"""

import random

import pytest

from codeperturb.analysis import find_functions
from codeperturb.core import CodeSample, Language, build_catalog
from codeperturb.transform import rule_engine_apply

CATALOG = build_catalog()

LOOP_SRC = """package main

import "fmt"

func total(nums []int) int {
\tacc := 0
\tfor i := 0; i < len(nums); i++ {
\t\tn := nums[i]
\t\tif n < 0 {
\t\t\tcontinue
\t\t}
\t\tacc += n
\t}
\treturn acc
}

func main() {
\tfmt.Println(total([]int{3, -1, 4}))
}
"""

CHAIN_SRC = """package main

import "fmt"

func grade(score int) string {
\tif score > 90 {
\t\treturn "A"
\t} else if score > 75 {
\t\treturn "B"
\t} else {
\t\treturn "C"
\t}
}

func scan(limit int) int {
\tacc := 0
\tfor i := 0; i < limit; i++ {
\t\tacc += i
\t}
\tfor acc > 50 {
\t\tacc -= 3
\t}
\treturn acc
}

func main() {
\tfmt.Println(grade(80), scan(12))
}
"""


def apply(src, method_id, seed):
    sample = CodeSample(id="g.go", language=Language.GO, text=src)
    return rule_engine_apply(sample, CATALOG.get(method_id), seed).candidate.text


def test_golden_modify_operations():
    out = apply(LOOP_SRC, "modify_operations", 0)
    assert out == LOOP_SRC.replace("\t\tacc += n", "\t\tacc = acc + n")


def test_golden_if_continue_to_if_else():
    out = apply(LOOP_SRC, "if_continue_to_if_else", 0)
    expected = LOOP_SRC.replace(
        "\t\tif n < 0 {\n\t\t\tcontinue\n\t\t}\n\t\tacc += n\n\t}",
        "\t\tif n < 0 {\n\t\t\tcontinue\n\t\t} else {\n\t\t\tacc += n\n\t\t}\n\t}",
    )
    assert out == expected


def test_golden_double_negation():
    out = apply(LOOP_SRC, "equi_boolean_logic", 5)
    assert "if !(!(n < 0)) {" in out
    assert out.replace("!(!(n < 0))", "n < 0") == LOOP_SRC


def test_golden_three_clause_to_condition_loop():
    out = apply(CHAIN_SRC, "for_while_transformation", 0)
    expected = CHAIN_SRC.replace(
        "\tfor i := 0; i < limit; i++ {\n\t\tacc += i\n\t}",
        "\t{\n\t\ti := 0\n\t\tfor i < limit {\n\t\t\tacc += i\n\t\t\ti++\n\t\t}\n\t}",
    )
    assert out == expected


def test_golden_three_clause_blocked_by_continue():
    # The only three-clause loop contains continue; hoisting the post
    # statement would skip it, so only the condition loop (none here in
    # LOOP_SRC) could be rewritten.
    sample = CodeSample(id="g.go", language=Language.GO, text=LOOP_SRC)
    from codeperturb.errors import NotApplicable

    with pytest.raises(NotApplicable):
        rule_engine_apply(sample, CATALOG.get("for_while_transformation"), 0)


def test_golden_div_if_else():
    out = apply(CHAIN_SRC, "div_if_else", 0)
    expected = CHAIN_SRC.replace(
        '\tif score > 90 {\n\t\treturn "A"\n\t} else if score > 75 {\n'
        '\t\treturn "B"\n\t} else {\n\t\treturn "C"\n\t}',
        '\tif score > 90 {\n\t\treturn "A"\n\t} else {\n\t\tif score > 75 {\n'
        '\t\t\treturn "B"\n\t\t} else {\n\t\t\treturn "C"\n\t\t}\n\t}',
    )
    assert out == expected


def test_golden_extract_if_closure():
    out = apply(CHAIN_SRC, "extract_if", 1)
    assert "\tcheck_271 := func() bool {\n\t\treturn score > 90\n\t}\n\tif check_271() {" in out
    restored = out.replace(
        "\tcheck_271 := func() bool {\n\t\treturn score > 90\n\t}\n\tif check_271() {",
        "\tif score > 90 {",
    )
    assert restored == CHAIN_SRC


def test_golden_condition_loop_to_three_clause():
    src = CHAIN_SRC.replace(
        "\tfor i := 0; i < limit; i++ {\n\t\tacc += i\n\t}\n", ""
    )
    out = apply(src, "for_while_transformation", 0)
    assert "\tfor ; acc > 50; {" in out


GENERIC_SRC = """package main

import "fmt"

func Map[T any](xs []T, f func(T) T) []T {
\tout := make([]T, 0, len(xs))
\tfor _, x := range xs {
\t\tout = append(out, f(x))
\t}
\treturn out
}

func main() {
\tfmt.Println(Map([]int{1, 2}, func(n int) int { return n + 1 }))
}
"""


def test_a_generic_function_is_found_and_its_locals_renamed():
    spans = find_functions(GENERIC_SRC, Language.GO)
    assert [(s.name, s.start_line, s.end_line) for s in spans] == [("Map", 4, 10), ("main", 12, 14)]
    sample = CodeSample(id="g.go", language=Language.GO, text=GENERIC_SRC)
    outcome = rule_engine_apply(sample, CATALOG.get("variables_rename"), 0)
    assert outcome.entry_point == "Map"
    assert outcome.candidate.text == GENERIC_SRC.replace("out", "trace_51").replace("x)", "probe_998)").replace(
        "_, x :=", "_, probe_998 :="
    )
