"""The perturbation-method selection optimizer and its random baseline.

One run: the start (two heuristic renames, then one random method per
category to seed the gain ledger), then up to max_iter main iterations of
perturb -> verify -> score -> gain update -> Boltzmann reselection,
halting early once the best similarity drops to the threshold. The random
baseline runs the same loop under a uniform law, without the init phase.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .analysis import find_functions
from .core import CodeSample, MethodCatalog, MethodCategory, PesoConfig, PerturbationMethod
from .errors import (
    CodePerturbError,
    LexError,
    MalformedAnswer,
    NotApplicable,
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
        return {**dataclasses.asdict(self), "category": self.category.name}


@dataclass
class OptimizerState:
    original: CodeSample
    current: CodeSample
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
    def fresh(cls, original: CodeSample, config: PesoConfig) -> "OptimizerState":
        names = _function_names(original)
        return cls(
            original=original,
            current=original,
            rng=random.Random(config.rng_seed),
            name_map={n: n for n in names or ()},
            current_names=names,
        )


def _function_names(sample: CodeSample) -> list[str] | None:
    try:
        return [f.name for f in find_functions(sample.text, sample.language)]
    except (ParseError, LexError):
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
        return dataclasses.asdict(self)


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


class _Run(NamedTuple):
    """What stays fixed over one optimizer run. The selection law is the
    pair `choose` (the next main-loop method) and `probabilities` (the
    per-category law each trace record carries); `seeds_ledger` adds the
    init phase, for a law that reads the gain ledger."""

    engine: Callable
    catalog: MethodCatalog
    config: PesoConfig
    verifier: Callable
    scorer: Callable
    choose: Callable[[OptimizerState], PerturbationMethod]
    probabilities: Callable[[OptimizerState], tuple[float, ...]]
    seeds_ledger: bool


def _peso(engine, catalog: MethodCatalog, config: PesoConfig, verifier, scorer) -> _Run:
    """A run under the Boltzmann law over the category gains."""
    return _Run(engine, catalog, config, verifier, scorer or (lambda o, c: score_pair(o, c, config)),
                choose=lambda state: select_method(state, catalog, config),
                probabilities=lambda state: boltzmann_probabilities(state.gains, config.temperature),
                seeds_ledger=True)


def gain_update(
    state: OptimizerState, candidate: CodeSample, score: SimilarityScore | None
) -> tuple[float, bool]:
    """The acceptance rule: keep a verified candidate (score not None) when
    its similarity did not increase, ties included. Returns the achieved
    gain and whether the candidate was kept."""
    if score is not None and state.mss >= score.ss:
        og, state.mss = state.mss - score.ss, score.ss
        state.current = candidate
        state.best_score = score
        return og, True
    return 0.0, False


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


def _attempt(state: OptimizerState, run: _Run, method: PerturbationMethod, phase: str) -> None:
    """Perturb, verify, score and keep or drop one candidate. Every phase
    but the heuristic renames overwrites the method's category gain."""
    seed = state.rng.getrandbits(32)
    entry_point = None
    verified = False
    score = None
    verification = None
    try:
        outcome = perturb(run.engine, state.current, method, seed)
    except _RECOVERABLE as exc:
        og, accepted = 0.0, False
        verification = {"skipped": f"{type(exc).__name__}: {exc}"}
    else:
        report = run.verifier(state.original, outcome.candidate)
        verification = report.to_dict()
        verified = bool(report.passed)
        if verified:
            score = run.scorer(state.original, outcome.candidate)
        og, accepted = gain_update(state, outcome.candidate, score)
        entry_point = outcome.entry_point
        if accepted:
            _update_name_map(state)
            original_name = next(
                (orig for orig, cur in state.name_map.items() if cur == entry_point), None
            )
            if original_name is not None:
                state.entry_points.add(original_name)
    if phase != "rename":
        state.gains[method.category.index] = og
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
            probabilities=run.probabilities(state),
            entry_point=entry_point,
            verification=verification,
        )
    )


def _start(state: OptimizerState, run: _Run) -> None:
    """The two heuristic renames (no gain-ledger writes), then, when the law
    reads the ledger, one random method per category in listing order."""
    for method_id in ("function_rename", "variables_rename"):
        _attempt(state, run, run.catalog.get(method_id), "rename")
    if run.seeds_ledger:
        for category in _CATEGORY_ORDER:
            methods = run.catalog.by_category[category]
            _attempt(state, run, methods[state.rng.randrange(len(methods))], "init")


def _optimize(original: CodeSample, run: _Run) -> RunResult:
    """The loop both selection laws share: the start, then up to max_iter
    main iterations, halting once the best similarity reaches the threshold.
    An error that fails the sample carries the records made before it on
    its ``partial_trace``."""
    config = run.config
    state = OptimizerState.fresh(original, config)
    try:
        _start(state, run)
        while state.iter < config.max_iter and state.mss > config.ss_threshold:
            method = run.choose(state)
            state.iter += 1
            _attempt(state, run, method, "main")
    except CodePerturbError as exc:
        exc.partial_trace = tuple(state.trace)
        raise
    best = state.best_score
    return RunResult(
        final=state.current,
        records=tuple(state.trace),
        summary=RunSummary(
            sample_id=original.id,
            language=original.language.value,
            seed=config.rng_seed,
            final_s1=best.s1 if best else 1.0,
            final_s2=best.s2 if best else 1.0,
            final_ss=state.mss,
            main_iterations=state.iter,
            halted_early=state.mss <= config.ss_threshold,
            methods_applied=tuple(r.method_id for r in state.trace if r.accepted),
            entry_points=tuple(sorted(state.entry_points)),
            function_map=dict(sorted(state.name_map.items())),
        ),
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
    return _optimize(original, _peso(engine, catalog, config, verifier, scorer))


def run_random_baseline(
    original: CodeSample,
    engine,
    catalog: MethodCatalog,
    config: PesoConfig,
    verifier,
    scorer=None,
) -> RunResult:
    """Same loop and acceptance rule, but each iteration picks uniformly
    over all 26 methods: no init phase, no Boltzmann selection. The trace
    records the per-category law of that draw, proportional to category
    size."""
    sizes = tuple(len(catalog.by_category[c]) / len(catalog.methods) for c in _CATEGORY_ORDER)
    uniform = _peso(engine, catalog, config, verifier, scorer)._replace(
        choose=lambda state: catalog.methods[state.rng.randrange(len(catalog.methods))],
        probabilities=lambda state: sizes,
        seeds_ledger=False,
    )
    return _optimize(original, uniform)


def derive_seed(base_seed: int, sample_id: str) -> int:
    """Stable per-sample seed so corpus runs parallelize deterministically."""
    import hashlib

    digest = hashlib.sha256(sample_id.encode()).digest()
    return (base_seed ^ int.from_bytes(digest[:8], "big")) & (2**63 - 1)
