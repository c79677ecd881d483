"""Perturbation engines.

The rule engine applies deterministic text-level rewrites; the LLM engine
delegates to a chat endpoint; the hybrid engine prefers rules and falls
back to the LLM. All engines return a PerturbationOutcome and never
mutate their input sample.

RULES is the rule engine's capability table: language -> method id ->
rewrite(text, rng) -> (new_text, entry_point). A (method, language) pair
has a rule exactly when it is listed there; every other pair needs the LLM
engine. Each rewrite collects the sites where its method applies, draws
one with shared.pick (NotApplicable when there is none) and rewrites it.
"""

from __future__ import annotations

import ast
import random
from dataclasses import dataclass

from ..core import CodeSample, EngineKind, Language, MethodCatalog, Origin, PerturbationMethod
from ..errors import NotApplicable, ParseError, UnsupportedCombination
from ..lexing import check_balance, lex
from . import rule_brace, rule_python
from .prompts import PromptBundle, parse_llm_answer, synthesize_prompt

RULES = {**rule_python.RULES, **rule_brace.RULES}

__all__ = [
    "PerturbationOutcome",
    "PromptBundle",
    "RULES",
    "RuleEngine",
    "HybridEngine",
    "perturb",
    "rule_engine_apply",
    "parse_llm_answer",
    "synthesize_prompt",
]


@dataclass(frozen=True)
class PerturbationOutcome:
    candidate: CodeSample
    method: PerturbationMethod
    engine_used: EngineKind
    entry_point: str


def _validate_output(text: str, language: Language) -> None:
    """Guard the syntactic-safety contract of the rule engine."""
    if language is Language.PYTHON:
        try:
            ast.parse(text)
        except SyntaxError as exc:
            raise ParseError(f"rule engine produced unparsable python: {exc}") from exc
        return
    problem = check_balance(lex(text, language))
    if problem:
        raise ParseError(f"rule engine produced unbalanced output: {problem}")


def rule_engine_apply(sample: CodeSample, method: PerturbationMethod, seed: int) -> PerturbationOutcome:
    """Apply one method deterministically. Raises UnsupportedCombination
    when RULES has no rule for the pair, NotApplicable when the code offers
    no matching site."""
    fn = RULES.get(sample.language, {}).get(method.id)
    if fn is None:
        raise UnsupportedCombination(f"{method.id} has no {sample.language.value} rule")
    new_text, entry = fn(sample.text, random.Random(seed))
    if new_text == sample.text:
        raise NotApplicable(f"{method.id} left the code unchanged")
    _validate_output(new_text, sample.language)
    return PerturbationOutcome(
        candidate=sample.derive(new_text, method.id, Origin.INTERMEDIATE),
        method=method,
        engine_used=EngineKind.RULE_BASED,
        entry_point=entry,
    )


class RuleEngine:
    """Deterministic built-in engine. Pure function of (text, method, seed)."""

    kind = EngineKind.RULE_BASED

    def __init__(self, catalog: MethodCatalog):
        self.catalog = catalog

    def supported(self, method: PerturbationMethod, language: Language) -> bool:
        return method.id in RULES.get(language, {})

    def apply(self, sample: CodeSample, method: PerturbationMethod, seed: int) -> PerturbationOutcome:
        return rule_engine_apply(sample, method, seed)


class HybridEngine:
    """Delegates to the rule engine when it supports the combination,
    otherwise to the LLM engine."""

    kind = EngineKind.HYBRID

    def __init__(self, rule_engine: RuleEngine, llm_engine):
        self.rule_engine = rule_engine
        self.llm_engine = llm_engine

    def supported(self, method: PerturbationMethod, language: Language) -> bool:
        return self.rule_engine.supported(method, language) or self.llm_engine.supported(
            method, language
        )

    def apply(self, sample: CodeSample, method: PerturbationMethod, seed: int) -> PerturbationOutcome:
        if self.rule_engine.supported(method, sample.language):
            return self.rule_engine.apply(sample, method, seed)
        return self.llm_engine.apply(sample, method, seed)


def perturb(engine, sample: CodeSample, method: PerturbationMethod, seed: int) -> PerturbationOutcome:
    """Apply one perturbation through the given engine.

    Enforces the engine support declaration and the lineage contract.
    """
    if not engine.supported(method, sample.language):
        raise UnsupportedCombination(
            f"{engine.kind.value} engine cannot apply {method.id} to {sample.language.value}"
        )
    outcome = engine.apply(sample, method, seed)
    assert outcome.candidate.lineage == sample.lineage + (method.id,)
    return outcome
