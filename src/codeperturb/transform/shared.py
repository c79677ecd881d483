"""Helpers shared by the Python and brace-language rule modules."""

from __future__ import annotations

import random

from ..errors import NotApplicable

VAR_WORDS = ["aux", "tmp", "slot", "item", "probe", "spare", "trace", "hold", "mark", "pad"]
FN_WORDS = ["helper", "worker", "routine", "shim", "stage", "piece", "chunk", "relay"]
PREDICATE_WORDS = ["check", "cond", "gate", "test"]


def pick(sites: list, rng: random.Random, reason: str):
    """One site drawn with the seeded RNG; NotApplicable(reason) if none."""
    if not sites:
        raise NotApplicable(reason)
    return sites[rng.randrange(len(sites))]


def splice(text: str, start: int, end: int, replacement: str) -> str:
    return text[:start] + replacement + text[end:]


def indent_lines(lines: list[str], prefix: str) -> list[str]:
    """Prefix every line that is not blank."""
    return [prefix + ln if ln.strip() else ln for ln in lines]


def fresh(existing: set[str], rng: random.Random, words: list[str]) -> str:
    """A `word_NNN` name not in `existing`; adds it there."""
    for _ in range(1000):
        name = f"{rng.choice(words)}_{rng.randrange(10, 1000)}"
        if name not in existing:
            existing.add(name)
            return name
    raise NotApplicable("could not find a fresh identifier")
