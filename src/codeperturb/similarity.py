"""Surface, semantic, and combined similarity between two code samples.

Surface similarity is normalized Levenshtein over raw text. The common
prefix and suffix of the two texts are stripped first, which leaves the
distance unchanged; the Myers/Hyyroe bit-parallel loop then runs over the
differing middle only, so a local edit of a long text costs little.

Semantic similarity is greedy string tiling coverage over normalized token
streams, so consistent identifier renames are invisible to it. The maximal
common runs are enumerated from seeds, as in Karp-Rabin greedy string
tiling (Wise 1993): every window of min_tile_len tokens of one stream is
indexed by its exact contents, each matching window of the other stream
that starts a run (it is at the start of either stream, or the tokens just
before differ) is extended to its full length, and the runs are then tiled
longest-first. score_pair keeps the original's token stream in a small
bounded cache, so a sample's original is tokenized once, not once per
candidate.

The combined score is the weighted mean of the two.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass

from .core import CodeSample, PesoConfig
from .errors import EmptyStream, LanguageMismatch
from .lexing import lex, normalize_token


@dataclass(frozen=True)
class TokenStream:
    """Normalized lexical tokens of a text."""

    tokens: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class SimilarityScore:
    s1: float
    s2: float
    ss: float


def tokenize(sample: CodeSample) -> TokenStream:
    """Deterministic normalized token stream for a sample.

    Renaming an identifier consistently leaves the stream unchanged.
    Raises LexError (with offset) on unlexable input.
    """
    return TokenStream(tokens=tuple(normalize_token(t) for t in lex(sample.text, sample.language)))


def _common_prefix_len(a: str, b: str) -> int:
    """Binary search over slice comparisons, which run at memcmp speed."""
    lo, hi = 0, min(len(a), len(b))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[:mid] == b[:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def levenshtein_distance(a: str, b: str) -> int:
    """Exact edit distance via the bit-parallel algorithm, run on what is
    left once the common prefix and suffix are stripped."""
    if a == b:
        return 0
    head = _common_prefix_len(a, b)
    a, b = a[head:], b[head:]
    tail = _common_prefix_len(a[::-1], b[::-1])
    a, b = a[: len(a) - tail], b[: len(b) - tail]
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) > len(b):
        a, b = b, a
    m = len(a)
    mask = (1 << m) - 1
    high = 1 << (m - 1)
    peq: dict[str, int] = {}
    for idx, ch in enumerate(a):
        peq[ch] = peq.get(ch, 0) | (1 << idx)
    vp = mask
    vn = 0
    score = m
    get = peq.get
    for ch in b:
        eq = get(ch, 0)
        d0 = ((((eq & vp) + vp) & mask) ^ vp) | eq | vn
        hp = vn | (~(d0 | vp) & mask)
        hn = vp & d0
        if hp & high:
            score += 1
        elif hn & high:
            score -= 1
        hp = ((hp << 1) | 1) & mask
        hn = (hn << 1) & mask
        vp = hn | (~(d0 | hp) & mask)
        vn = hp & d0
    return score


def surface_similarity(a: str, b: str) -> float:
    """1 - dist/max(|a|,|b|); 1.0 when both strings are empty. Symmetric."""
    if not a and not b:
        return 1.0
    return 1.0 - levenshtein_distance(a, b) / max(len(a), len(b))


def _maximal_runs(a: str, b: str, min_len: int) -> list[tuple[int, int, int]]:
    """All maximal equal runs of length >= min_len, as (-length, i, j).

    a and b hold one character per token. Each window of a is indexed by
    its contents and by the character before it; a window of b that matches
    starts a run on every diagonal whose preceding characters differ, and
    that run is extended by galloping slice comparisons.
    """
    na, nb = len(a), len(b)
    seeds: dict[str, dict[str, list[int]]] = {}
    for i in range(na - min_len + 1):
        before = a[i - 1] if i else ""
        seeds.setdefault(a[i : i + min_len], {}).setdefault(before, []).append(i)
    runs = []
    for j in range(nb - min_len + 1):
        by_before = seeds.get(b[j : j + min_len])
        if by_before is None:
            continue
        before_j = b[j - 1] if j else None
        for before, starts in by_before.items():
            if before == before_j:
                continue  # these diagonals continue a run that began earlier
            for i in starts:
                # Gallop past the seed while whole slices agree, then halve.
                length, step = min_len, 8
                limit = min(na - i, nb - j)
                while length < limit:
                    end = min(length + step, limit)
                    if a[i + length : i + end] == b[j + length : j + end]:
                        length = end
                        step *= 2
                    elif step > 1:
                        step //= 2
                    else:
                        break
                runs.append((-length, i, j))
    return runs


def greedy_tiles(a_tokens: tuple[str, ...], b_tokens: tuple[str, ...], min_tile_len: int):
    """Non-overlapping tiles chosen longest-first.

    Policy: repeatedly take the longest common run of tokens not yet covered
    by a tile (ties broken by smallest position in a, then in b), until no
    run of at least min_tile_len remains.
    """
    vocab: dict[str, str] = {}
    a = "".join([vocab.setdefault(t, chr(len(vocab))) for t in a_tokens])
    b = "".join([vocab.setdefault(t, chr(len(vocab))) for t in b_tokens])

    heap = _maximal_runs(a, b, min_tile_len)
    heapq.heapify(heap)
    marked_a = bytearray(len(a))
    marked_b = bytearray(len(b))
    tiles: list[tuple[int, int, int]] = []
    while heap:
        neg_len, i, j = heapq.heappop(heap)
        length = -neg_len
        end_a, end_b = i + length, j + length
        if marked_a.find(1, i, end_a) < 0 and marked_b.find(1, j, end_b) < 0:
            marked_a[i:end_a] = b"\x01" * length
            marked_b[j:end_b] = b"\x01" * length
            tiles.append((length, i, j))
            continue
        # Split around covered positions; re-queue the clean pieces.
        s = 0
        while length - s >= min_tile_len:
            # Skip to the next offset that is clean in both streams.
            free_a = marked_a.find(0, i + s, end_a)
            free_b = marked_b.find(0, j + s, end_b)
            if free_a < 0 or free_b < 0:
                break
            nxt = max(free_a - i, free_b - j)
            if nxt != s:
                s = nxt
                continue
            # The clean piece runs up to the next covered offset in either.
            dirty_a = marked_a.find(1, i + s, end_a)
            dirty_b = marked_b.find(1, j + s, end_b)
            e = min(dirty_a - i if dirty_a >= 0 else length, dirty_b - j if dirty_b >= 0 else length)
            if e - s >= min_tile_len:
                heapq.heappush(heap, (s - e, i + s, j + s))
            s = e
    return tiles


def semantic_similarity(a: TokenStream, b: TokenStream, min_tile_len: int) -> float:
    """Greedy-string-tiling coverage: 2 * matched / (|a| + |b|).

    Identical non-empty streams score 1.0 regardless of the tile floor.
    Raises EmptyStream when both streams are empty. Operand orientation is
    canonicalized so the result is exactly symmetric.
    """
    if min_tile_len < 1:
        raise ValueError("min_tile_len must be >= 1")
    ta, tb = a.tokens, b.tokens
    if not ta and not tb:
        raise EmptyStream("semantic similarity is undefined for two empty programs")
    if ta == tb:
        return 1.0
    if not ta or not tb:
        return 0.0
    if tb < ta:
        ta, tb = tb, ta
    tiles = greedy_tiles(ta, tb, min_tile_len)
    matched = sum(length for length, _, _ in tiles)
    return 2.0 * matched / (len(ta) + len(tb))


def combined_score(s1: float, s2: float, config: PesoConfig) -> float:
    """Weighted overall similarity: mu * s1 + nu * s2."""
    if not (0.0 <= s1 <= 1.0 and 0.0 <= s2 <= 1.0):
        raise ValueError("component scores must lie in [0, 1]")
    return config.mu * s1 + config.nu * s2


@functools.lru_cache(maxsize=16)
def _original_stream(original: CodeSample) -> TokenStream:
    """tokenize(original), kept for the few samples in flight: a sample's
    original is scored against every candidate of its run. Keyed on the
    frozen sample, so on its text and language; a LexError is not kept."""
    return tokenize(original)


def score_pair(original: CodeSample, candidate: CodeSample, config: PesoConfig) -> SimilarityScore:
    """Full similarity triple between two samples of the same language."""
    if original.language is not candidate.language:
        raise LanguageMismatch(
            f"{original.language.value} vs {candidate.language.value}"
        )
    s1 = surface_similarity(original.text, candidate.text)
    s2 = semantic_similarity(_original_stream(original), tokenize(candidate), config.min_tile_len)
    return SimilarityScore(s1=s1, s2=s2, ss=combined_score(s1, s2, config))
