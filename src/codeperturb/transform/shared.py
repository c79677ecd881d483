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


def replace_tokens(text: str, hits: list, renames: dict[str, str], missing: str) -> str:
    """Replace each hit token (in text order) by renames[token.text].

    Raises NotApplicable(missing.format(old)) for the first old name in
    `renames` that no hit carries.
    """
    found = {t.text for t in hits}
    for old in renames:
        if old not in found:
            raise NotApplicable(missing.format(old))
    pieces, pos = [], 0
    for t in hits:
        pieces += [text[pos : t.start], renames[t.text]]
        pos = t.end
    return "".join(pieces) + text[pos:]


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
