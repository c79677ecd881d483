"""Helpers shared by the Python and brace-language rule modules."""

from __future__ import annotations

import random

from ..errors import NotApplicable

VAR_WORDS = ["aux", "tmp", "slot", "item", "probe", "spare", "trace", "hold", "mark", "pad"]
FN_WORDS = ["helper", "worker", "routine", "shim", "stage", "piece", "chunk", "relay"]
PREDICATE_WORDS = ["check", "cond", "gate", "test"]


def rule_table(view, rules) -> dict:
    """{rule name: rewrite(text, rng)}, each rule reading view(text)."""

    def rewrite(fn):
        return lambda text, rng: fn(view(text), rng)

    return {fn.__name__: rewrite(fn) for fn in rules}


def pick(sites: list, rng: random.Random, reason: str):
    """One site drawn with the seeded RNG; NotApplicable(reason) if none."""
    if not sites:
        raise NotApplicable(reason)
    return sites[rng.randrange(len(sites))]


def splice(text: str, start: int, end: int, replacement: str) -> str:
    return text[:start] + replacement + text[end:]


def replace_tokens(text: str, hits: list[tuple[int, int, str]], renames: dict[str, str], missing: str) -> str:
    """Replace each hit (start, end, old), in text order, by renames[old].

    Raises NotApplicable(missing.format(old)) for the first old name in
    `renames` that no hit carries.
    """
    found = {old for _, _, old in hits}
    for old in renames:
        if old not in found:
            raise NotApplicable(missing.format(old))
    pieces, pos = [], 0
    for start, end, old in hits:
        pieces += [text[pos:start], renames[old]]
        pos = end
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
