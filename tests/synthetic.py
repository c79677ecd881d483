"""Deterministic fake engines, scorers, and verifiers for optimizer tests.

The engine appends one unique marker line per perturbation; the scorers
compute similarity as a pure function of the marker lines present in the
candidate, so any path through accept/reject decisions stays consistent
and re-scoring the final sample reproduces the recorded optimum exactly.
"""

from __future__ import annotations

import hashlib

from codeperturb.core import CodeSample, EngineKind, MethodCategory, build_catalog
from codeperturb.similarity import SimilarityScore
from codeperturb.verify import VerificationReport

CATALOG = build_catalog()

MARKER = "# mark "


class MarkerEngine:
    """An engine that appends '# mark <method> <n>' per call; n is a
    per-instance counter."""

    def __init__(self):
        self.calls = 0

    def __call__(self, sample, method, seed):
        from codeperturb.transform import PerturbationOutcome

        self.calls += 1
        text = sample.text
        if not text.endswith("\n"):
            text += "\n"
        text += f"{MARKER}{method.id} {self.calls}\n"
        return PerturbationOutcome(
            candidate=sample.derive(text, method.id),
            engine_used=EngineKind.RULE_BASED,
            entry_point="main",
        )


def marker_lines(text: str) -> list[str]:
    return [ln for ln in text.splitlines() if ln.startswith(MARKER)]


def make_verifier(passed: bool = True):
    def verifier(original, candidate):
        return VerificationReport(syntax_ok=True, compile_ok=None, behaviour_ok=passed, diagnostics=())

    return verifier


def triple(ss: float) -> SimilarityScore:
    return SimilarityScore(s1=ss, s2=ss, ss=ss)


def halving_scorer(original: CodeSample, candidate: CodeSample) -> SimilarityScore:
    """ss stays 1.0 through the 8 initialization perturbations, then halves
    with each further marker: 1.0 -> 0.5 -> 0.25 -> 0.125 ..."""
    n = len(marker_lines(candidate.text))
    return triple(0.5 ** max(0, n - 8))


def noisy_scorer(original: CodeSample, candidate: CodeSample) -> SimilarityScore:
    """Pseudo-random but path-independent landscape: each marker line
    contributes a hash-derived delta in [-0.02, 0.06)."""
    total = 0.0
    for line in marker_lines(candidate.text):
        digest = hashlib.sha256(line.encode()).digest()
        total += (int.from_bytes(digest[:4], "big") % 1000) / 1000 * 0.08 - 0.02
    ss = min(1.0, max(0.0, 1.0 - total))
    return triple(ss)


def category_scorer(good: MethodCategory, step: float = 0.1):
    """Every accepted method from the good category lowers ss by `step`;
    all other methods change nothing."""

    def scorer(original: CodeSample, candidate: CodeSample) -> SimilarityScore:
        hits = 0
        for line in marker_lines(candidate.text):
            method_id = line[len(MARKER):].split()[0]
            if CATALOG.get(method_id).category is good:
                hits += 1
        return triple(max(0.0, 1.0 - step * hits))

    return scorer
