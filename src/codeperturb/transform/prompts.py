"""Prompt synthesis for the LLM engine and parsing of its replies.

Every method gets a four-part prompt: a role, a task description
(prerequisites, requirements, an abstract format template, optionally an
example), the code itself, and answer instructions requiring a JSON reply
with the modified code and its entry point. The role is the system
message; the user message holds all four parts.
"""

from __future__ import annotations

import json
import re

from ..core import CodeSample, Language, PerturbationMethod
from ..errors import MalformedAnswer

_LANGUAGE_TITLES = {
    Language.C_CPP: "C/C++",
    Language.GO: "Go",
    Language.PYTHON: "Python",
    Language.RUST_LANG: "Rust",
    Language.JAVA: "Java",
}


# Extra constraints beyond the catalog description, and the abstract shape
# the rewrite should follow. Methods not listed fall back on the generic
# template.
_REQUIREMENT_NOTES = {
    "add_arguments": (
        "Do not add a parameter with a default value unless the function's "
        "last parameter already has a default value; added parameters must "
        "never influence the output."
    ),
    "add_exception": "Handlers must re-raise or be unreachable; behavior must not change.",
    "insert_junk_loop": "The inserted loop must be provably never executed.",
    "insert_junk_function": "The inserted function must never be called.",
    "insert_variables": "The inserted variables must never be read.",
    "change_statement_order": "Only swap adjacent statements that share no variables.",
    "swap_boolean_expression": "Mirror the comparison operator when operands swap sides.",
    "for_while_transformation": "Keep break/continue behavior identical.",
    "div_loop": "Each split loop must cover the original iteration space exactly once.",
    "modify_operations": "Expand compound assignment without reordering operands.",
}

_FORMAT_TEMPLATES = {
    "function_rename": "name(...) -> fresh_name(...), every reference updated",
    "variables_rename": "var -> fresh_var, consistently within its scope",
    "modify_operations": "x OP= y -> x = x OP (y)",
    "swap_boolean_expression": "a < b -> b > a",
    "div_composed_if": "if A and B { S } -> if A { if B { S } }",
    "div_if_else": "if A {X} else-if B {Y} -> if A {X} else { if B {Y} }",
    "if_continue_to_if_else": "if C { continue } REST -> if C { continue } else { REST }",
    "extract_if": "if COND { S } -> predicate(...) defined; if predicate(...) { S }",
    "extract_arithmetic": "y = EXPR -> helper(...) defined; y = helper(...)",
    "equi_arithmetic_expression": "N -> (N-k) + k; x*2 -> x+x",
    "equi_boolean_logic": "A and B -> not (not A or not B)",
    "for_while_transformation": "for INIT; COND; POST { S } -> INIT; while COND { S; POST }",
    "statement_wrapping": "S -> if ALWAYS_TRUE { S }",
    "if_to_switch_match": "if/else chain -> switch/match over the same cases",
    "switch_match_to_if": "switch/match -> equivalent if/else chain",
}

_EXAMPLES = {
    "modify_operations": "a += b becomes a = a + b",
    "swap_boolean_expression": "if a < b or c < d becomes if b > a or d > c",
    "div_composed_if": "if a and b: f() becomes if a: if b: f()",
}


_PREREQUISITES = (
    "Perturb exactly one function of the file below and leave all "
    "imports and external dependencies untouched."
)

_ANSWER_INSTRUCTIONS = (
    'Return a JSON object with exactly two fields: "code" holding the '
    'complete modified source file and "entry_point" naming the '
    "modified function."
)


def synthesize_prompt(sample: CodeSample, method: PerturbationMethod) -> tuple[str, str]:
    """The (system, user) messages that ask for `method` on `sample`. The
    system message is the role; the user message repeats it, then gives the
    task, the code and the answer instructions, one paragraph each."""
    lang = _LANGUAGE_TITLES[sample.language]
    role = (
        f"You are an expert {lang} developer. You perform careful "
        f"semantics-preserving refactors: the transformed program must "
        f"produce exactly the same output for every input."
    )
    requirements = method.description
    note = _REQUIREMENT_NOTES.get(method.id)
    if note:
        requirements = f"{requirements}. {note}"
    fmt = _FORMAT_TEMPLATES.get(method.id, "original construct -> equivalent rewritten construct")
    parts = [
        role,
        f"Prerequisites: {_PREREQUISITES}",
        f"Requirements: {requirements}",
        f"Format: {fmt}",
    ]
    example = _EXAMPLES.get(method.id)
    if example:
        parts.append(f"Example: {example}")
    parts.append("Entry point: ")
    parts.append("Code:\n```\n" + sample.text + "\n```")
    parts.append(_ANSWER_INSTRUCTIONS)
    return role, "\n\n".join(parts)


_FENCE_RE = re.compile(r"```(?:json)?\s*(.*?)```", re.DOTALL)


def parse_llm_answer(raw: str) -> tuple[str, str]:
    """Extract (code, entry_point) from a structured reply.

    Tolerates surrounding prose and code fences; rejects replies missing
    either field.
    """
    candidates = [raw.strip()]
    candidates.extend(m.strip() for m in _FENCE_RE.findall(raw))
    decoder = json.JSONDecoder()
    for blob in candidates:
        for start in _object_starts(blob):
            try:
                obj, _ = decoder.raw_decode(blob[start:])
            except json.JSONDecodeError:
                continue
            if isinstance(obj, dict) and "code" in obj and "entry_point" in obj:
                code, entry = obj["code"], obj["entry_point"]
                if isinstance(code, str) and isinstance(entry, str):
                    return code, entry
    raise MalformedAnswer("reply lacks a JSON object with code and entry_point", raw=raw)


def _object_starts(blob: str):
    for i, c in enumerate(blob):
        if c == "{":
            yield i
