"""Exception types shared across the toolkit."""

from __future__ import annotations

import copyreg


class CodePerturbError(Exception):
    """Base class for all toolkit errors.

    An error pickles with its type, message and attributes (``offset``,
    ``raw``, ``partial_trace``, ...) and unpickles without calling
    ``__init__`` again, so that every subclass crosses a process boundary
    whatever its ``__init__`` takes.
    """

    def __reduce__(self):
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ConfigError(CodePerturbError):
    """Invalid or inconsistent configuration."""


class UnknownMethod(CodePerturbError):
    """A perturbation method id that is not in the catalog."""


class LanguageMismatch(CodePerturbError):
    """Two samples that were expected to share a language do not."""


class LexError(CodePerturbError):
    """Source text that cannot be tokenized.

    ``offset`` is the index into the text where lexing failed.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EmptyStream(CodePerturbError):
    """Semantic similarity requested for two empty token streams."""


class NotApplicable(CodePerturbError):
    """The method has no applicable site in the given code."""


class UnsupportedCombination(CodePerturbError):
    """The engine does not support this (method, language) pair."""


class ParseError(CodePerturbError):
    """The rule engine could not analyze the input structurally."""


class EngineFailure(CodePerturbError):
    """LLM transport or response failure, with the cause attached."""


class MalformedAnswer(CodePerturbError):
    """An LLM reply that does not contain the required fields.

    The offending raw text is kept on ``raw`` for the trace.
    """

    def __init__(self, message: str, raw: str):
        super().__init__(message)
        self.raw = raw


class RunnerFailure(CodePerturbError):
    """A program or compiler could not be started, or the fork server died."""


class ExecutionTimeout(RunnerFailure):
    """A single input exceeded its execution time budget."""


class OriginalUnrunnable(CodePerturbError):
    """A sample's original program does not compile, or fails, times out or
    is nondeterministic under the execution oracle, so none of its
    candidates can be checked: the sample fails."""


class RegionUnavailable(CodePerturbError):
    """No perturbed function has enough maskable lines for any task size."""
