"""Semantics-preserving code perturbation toolkit.

Applies catalogued transformations to source files, verifies the results,
and drives down similarity with the original via Boltzmann-selection
optimization, then builds masked code-completion tasks from the perturbed
corpus.
"""

from .core import (
    CodeSample,
    EngineKind,
    EquivalenceSpec,
    Language,
    MethodCatalog,
    MethodCategory,
    Origin,
    PerturbationMethod,
    PesoConfig,
    build_catalog,
)
from .similarity import (
    SimilarityScore,
    TokenStream,
    combined_score,
    score_pair,
    semantic_similarity,
    surface_similarity,
    tokenize,
)

__version__ = "0.1.0"

__all__ = [
    "CodeSample",
    "EngineKind",
    "EquivalenceSpec",
    "Language",
    "MethodCatalog",
    "MethodCategory",
    "Origin",
    "PerturbationMethod",
    "PesoConfig",
    "SimilarityScore",
    "TokenStream",
    "build_catalog",
    "combined_score",
    "score_pair",
    "semantic_similarity",
    "surface_similarity",
    "tokenize",
    "__version__",
]
