"""The perturbation-method selection optimizer and its random baseline.

One run: initialize (two heuristic renames, then one random method per
category to seed the gain ledger), then up to max_iter main iterations of
perturb -> verify -> score -> gain update -> Boltzmann reselection,
halting early once the best similarity drops to the threshold.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass, field

from .analysis import find_functions
from .core import CodeSample, MethodCatalog, MethodCategory, Origin, PesoConfig, PerturbationMethod
from .errors import (
    EngineFailure,
    MalformedAnswer,
    NotApplicable,
    OriginalUnrunnable,
    ParseError,
    UnsupportedCombination,
)
from .similarity import SimilarityScore, score_pair
from .transform import perturb

_RECOVERABLE = (NotApplicable, UnsupportedCombination, ParseError, MalformedAnswer)

_CATEGORY_ORDER = tuple(MethodCategory)


@dataclass(frozen=True)
class IterationRecord:
    iter: int
    phase: str  # rename | init | main
    method_id: str
    category: MethodCategory
    verified: bool
    score: SimilarityScore | None
    og: float
    accepted: bool
    probabilities: tuple[float, ...]
    entry_point: str | None = None
    verification: dict | None = None

    def to_dict(self) -> dict:
        return {
            "iter": self.iter,
            "phase": self.phase,
            "method_id": self.method_id,
            "category": self.category.name,
            "verified": self.verified,
            "score": None
            if self.score is None
            else {"s1": self.score.s1, "s2": self.score.s2, "ss": self.score.ss},
            "og": self.og,
            "accepted": self.accepted,
            "probabilities": list(self.probabilities),
            "entry_point": self.entry_point,
            "verification": self.verification,
        }


@dataclass
class OptimizerState:
    original: CodeSample
    current: CodeSample
    catalog: MethodCatalog
    rng: random.Random
    mss: float = 1.0
    gains: list[float] = field(default_factory=lambda: [0.0] * 6)
    iter: int = 0  # main-loop iterations consumed
    trace: list[IterationRecord] = field(default_factory=list)
    name_map: dict[str, str] = field(default_factory=dict)
    entry_points: set[str] = field(default_factory=set)
    best_score: SimilarityScore | None = None
    # Function names of `current`; None when find_functions failed on it.
    current_names: list[str] | None = None

    @classmethod
    def fresh(cls, original: CodeSample, catalog: MethodCatalog, config: PesoConfig) -> "OptimizerState":
        names = _function_names(original)
        return cls(
            original=original,
            current=original,
            catalog=catalog,
            rng=random.Random(config.rng_seed),
            name_map={n: n for n in names or ()},
            current_names=names,
        )


def _function_names(sample: CodeSample) -> list[str] | None:
    try:
        return [f.name for f in find_functions(sample.text, sample.language)]
    except Exception:
        return None


@dataclass(frozen=True)
class RunSummary:
    sample_id: str
    language: str
    seed: int
    final_s1: float
    final_s2: float
    final_ss: float
    main_iterations: int
    halted_early: bool
    methods_applied: tuple[str, ...]
    entry_points: tuple[str, ...]
    function_map: dict

    def to_dict(self) -> dict:
        return {
            "sample_id": self.sample_id,
            "language": self.language,
            "seed": self.seed,
            "final_s1": self.final_s1,
            "final_s2": self.final_s2,
            "final_ss": self.final_ss,
            "main_iterations": self.main_iterations,
            "halted_early": self.halted_early,
            "methods_applied": list(self.methods_applied),
            "entry_points": list(self.entry_points),
            "function_map": dict(self.function_map),
        }


@dataclass(frozen=True)
class RunResult:
    final: CodeSample
    records: tuple[IterationRecord, ...]
    summary: RunSummary


def boltzmann_probabilities(gains, temperature: float) -> tuple[float, ...]:
    """Softmax with temperature over the per-category gains.

    Every category keeps positive probability, even at zero gain. Shifted
    by the max gain for numerical stability (the distribution is shift
    invariant).
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    top = max(gains)
    weights = [math.exp((g - top) / temperature) for g in gains]
    total = sum(weights)
    return tuple(w / total for w in weights)


def select_method(state: OptimizerState, catalog: MethodCatalog, config: PesoConfig) -> PerturbationMethod:
    """Sample a category from the Boltzmann distribution over gains, then a
    uniform method within it."""
    probs = boltzmann_probabilities(state.gains, config.temperature)
    r = state.rng.random()
    acc = 0.0
    index = len(probs) - 1
    for i, p in enumerate(probs):
        acc += p
        if r < acc:
            index = i
            break
    category = _CATEGORY_ORDER[index]
    methods = catalog.by_category[category]
    return methods[state.rng.randrange(len(methods))]


def gain_update(
    state: OptimizerState,
    candidate: CodeSample,
    report,
    score: SimilarityScore | None,
    update_ledger: bool = True,
) -> tuple[float, bool]:
    """The acceptance and gain rule for one verified-or-not candidate.

    Keeps the candidate (including on score ties) only when similarity did
    not increase; the ledger entry for the candidate's category is then
    overwritten with the achieved gain.
    """
    method_id = candidate.lineage[-1]
    category = state.catalog.get(method_id).category
    if report is None or not report.passed or score is None:
        og, accepted = 0.0, False
    elif state.mss >= score.ss:
        og = state.mss - score.ss
        state.mss = score.ss
        state.current = dataclasses.replace(candidate, origin=Origin.ACCEPTED)
        state.best_score = score
        accepted = True
    else:
        og, accepted = 0.0, False
    if update_ledger:
        state.gains[category.index] = og
    return og, accepted


def _update_name_map(state: OptimizerState) -> None:
    """Follow a rename between the function names of the text before the
    acceptance and those of the accepted `state.current`."""
    before, after = state.current_names, _function_names(state.current)
    state.current_names = after
    if before is None or after is None:
        return
    removed = [n for n in before if n not in after]
    added = [n for n in after if n not in before]
    if len(removed) == 1 and len(added) == 1:
        old_cur, new_cur = removed[0], added[0]
        for orig, cur in state.name_map.items():
            if cur == old_cur:
                state.name_map[orig] = new_cur
                break


def _attempt(
    state: OptimizerState,
    engine,
    method: PerturbationMethod,
    config: PesoConfig,
    verifier,
    scorer,
    phase: str,
    update_ledger: bool,
    record_probs: tuple[float, ...] | None = None,
) -> None:
    seed = state.rng.getrandbits(32)
    entry_point = None
    verified = False
    score = None
    verification = None
    try:
        outcome = perturb(engine, state.current, method, seed)
    except _RECOVERABLE as exc:
        og, accepted = 0.0, False
        verification = {"skipped": f"{type(exc).__name__}: {exc}"}
        if update_ledger:
            state.gains[method.category.index] = 0.0
    except EngineFailure as exc:
        exc.partial_trace = tuple(state.trace)
        raise
    else:
        try:
            report = verifier(state.original, outcome.candidate)
        except OriginalUnrunnable as exc:
            exc.partial_trace = tuple(state.trace)
            raise
        verification = report.to_dict()
        verified = bool(report.passed)
        if verified:
            score = scorer(state.original, outcome.candidate)
        og, accepted = gain_update(state, outcome.candidate, report, score, update_ledger)
        entry_point = outcome.entry_point
        if accepted:
            _update_name_map(state)
            original_name = next(
                (orig for orig, cur in state.name_map.items() if cur == entry_point), None
            )
            if original_name is not None:
                state.entry_points.add(original_name)
    state.trace.append(
        IterationRecord(
            iter=len(state.trace),
            phase=phase,
            method_id=method.id,
            category=method.category,
            verified=verified,
            score=score,
            og=og,
            accepted=accepted,
            probabilities=record_probs
            if record_probs is not None
            else boltzmann_probabilities(state.gains, config.temperature),
            entry_point=entry_point,
            verification=verification,
        )
    )


def initialize(
    state: OptimizerState,
    engine,
    catalog: MethodCatalog,
    config: PesoConfig,
    verifier,
    scorer,
) -> OptimizerState:
    """Heuristic renames first (no gain-ledger writes), then one random
    method per category in listing order, seeding the ledger."""
    if state.iter != 0 or state.mss != 1.0:
        raise ValueError("initialize requires a fresh optimizer state")
    for method_id in ("function_rename", "variables_rename"):
        _attempt(state, engine, catalog.get(method_id), config, verifier, scorer,
                 phase="rename", update_ledger=False)
    for category in _CATEGORY_ORDER:
        methods = catalog.by_category[category]
        method = methods[state.rng.randrange(len(methods))]
        _attempt(state, engine, method, config, verifier, scorer,
                 phase="init", update_ledger=True)
    return state


def _summarize(state: OptimizerState, config: PesoConfig) -> RunSummary:
    applied = tuple(r.method_id for r in state.trace if r.accepted)
    best = state.best_score
    return RunSummary(
        sample_id=state.original.id,
        language=state.original.language.value,
        seed=config.rng_seed,
        final_s1=best.s1 if best else 1.0,
        final_s2=best.s2 if best else 1.0,
        final_ss=state.mss,
        main_iterations=state.iter,
        halted_early=state.mss <= config.ss_threshold,
        methods_applied=applied,
        entry_points=tuple(sorted(state.entry_points)),
        function_map=dict(sorted(state.name_map.items())),
    )


def run(
    original: CodeSample,
    engine,
    catalog: MethodCatalog,
    config: PesoConfig,
    verifier,
    scorer=None,
) -> RunResult:
    """Full optimization of one sample. Deterministic for a given config
    seed and a deterministic engine."""
    if scorer is None:
        scorer = lambda o, c: score_pair(o, c, config)
    state = OptimizerState.fresh(original, catalog, config)
    initialize(state, engine, catalog, config, verifier, scorer)
    while state.iter < config.max_iter and state.mss > config.ss_threshold:
        method = select_method(state, catalog, config)
        state.iter += 1
        _attempt(state, engine, method, config, verifier, scorer,
                 phase="main", update_ledger=True)
    return RunResult(
        final=state.current,
        records=tuple(state.trace),
        summary=_summarize(state, config),
    )


def run_random_baseline(
    original: CodeSample,
    engine,
    catalog: MethodCatalog,
    config: PesoConfig,
    verifier,
    scorer=None,
) -> RunResult:
    """Same loop and acceptance rule, but each iteration picks uniformly
    over all 26 methods: no gain ledger, no Boltzmann selection."""
    if scorer is None:
        scorer = lambda o, c: score_pair(o, c, config)
    state = OptimizerState.fresh(original, catalog, config)
    # The selection law is uniform over methods, so the per-category
    # distribution recorded in the trace is proportional to category size.
    sizes = tuple(
        len(catalog.by_category[c]) / len(catalog.methods) for c in _CATEGORY_ORDER
    )
    for method_id in ("function_rename", "variables_rename"):
        _attempt(state, engine, catalog.get(method_id), config, verifier, scorer,
                 phase="rename", update_ledger=False, record_probs=sizes)
    while state.iter < config.max_iter and state.mss > config.ss_threshold:
        method = catalog.methods[state.rng.randrange(len(catalog.methods))]
        state.iter += 1
        _attempt(state, engine, method, config, verifier, scorer,
                 phase="main", update_ledger=False, record_probs=sizes)
    return RunResult(
        final=state.current,
        records=tuple(state.trace),
        summary=_summarize(state, config),
    )


def derive_seed(base_seed: int, sample_id: str) -> int:
    """Stable per-sample seed so corpus runs parallelize deterministically."""
    import hashlib

    digest = hashlib.sha256(sample_id.encode()).digest()
    return (base_seed ^ int.from_bytes(digest[:8], "big")) & (2**63 - 1)
