"""Perturbation engines.

An engine is a plain function (sample, method, seed) -> PerturbationOutcome
that never mutates its input sample. rule_engine_apply is the rule engine:
deterministic text-level rewrites, and the one check of whether a (method,
language) pair has a rule. llm.llm_engine(transport) delegates every pair to
a chat endpoint; hybrid_engine(llm) tries the rule engine and falls back on
llm only when it raises UnsupportedCombination.

Engines propose and verification judges: no engine checks the syntax of
what it returns. A rule output that does not parse is a candidate like any
other, and verify's syntax stage rejects it with the parser's diagnostic,
as it does an LLM answer.

RULES is the rule engine's capability table: language -> method id ->
rewrite(text, rng) -> (new_text, entry_point). A (method, language) pair
has a rule exactly when it is listed there; every other pair needs the LLM
engine. Each rewrite collects the sites where its method applies, draws
one with shared.pick (NotApplicable when there is none) and rewrites it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..core import CodeSample, EngineKind, PerturbationMethod
from ..errors import NotApplicable, UnsupportedCombination
from . import rule_brace, rule_python

RULES = {**rule_python.RULES, **rule_brace.RULES}


@dataclass(frozen=True)
class PerturbationOutcome:
    candidate: CodeSample
    engine_used: EngineKind
    entry_point: str


def rule_engine_apply(sample: CodeSample, method: PerturbationMethod, seed: int) -> PerturbationOutcome:
    """The rule engine: apply one method deterministically. Raises
    UnsupportedCombination when RULES has no rule for the pair, NotApplicable
    when the code offers no matching site."""
    fn = RULES.get(sample.language, {}).get(method.id)
    if fn is None:
        raise UnsupportedCombination(
            f"rule engine cannot apply {method.id} to {sample.language.value}"
        )
    new_text, entry = fn(sample.text, random.Random(seed))
    if new_text == sample.text:
        raise NotApplicable(f"{method.id} left the code unchanged")
    return PerturbationOutcome(
        candidate=sample.derive(new_text, method.id),
        engine_used=EngineKind.RULE_BASED,
        entry_point=entry,
    )


def hybrid_engine(llm):
    """An engine that applies the rule engine, and `llm` to the pairs that
    have no rule. Every other rule error, NotApplicable included, goes to
    the caller."""

    def hybrid(sample: CodeSample, method: PerturbationMethod, seed: int) -> PerturbationOutcome:
        try:
            return rule_engine_apply(sample, method, seed)
        except UnsupportedCombination:
            return llm(sample, method, seed)

    return hybrid


def perturb(engine, sample: CodeSample, method: PerturbationMethod, seed: int) -> PerturbationOutcome:
    """Apply one perturbation through `engine`, and enforce the lineage
    contract."""
    outcome = engine(sample, method, seed)
    assert outcome.candidate.lineage == sample.lineage + (method.id,)
    return outcome
