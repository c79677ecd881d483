"""Surface, semantic, and combined similarity between two code samples.

Surface similarity is normalized Levenshtein over raw text. The common
prefix and suffix of the two texts are stripped first, which leaves the
distance unchanged, and only the differing middle is aligned. A candidate
usually differs from its original by a few sparse edits, so its distance k
is small against the middle's length m. The middle is therefore first
aligned on a diagonal band only (Ukkonen 1985, "Algorithms for approximate
string matching"): a path of cost at most k never leaves the diagonals
within about k/2 of the two corners' diagonals, so a band of about k+1 rows
per column decides whether the distance is at most k, and gives it exactly
when it is. The band runs as one bit vector of k+1 bits (Hyyroe 2003, "A
bit-vector algorithm for computing Levenshtein and Damerau edit
distances"), so a column costs O(k/w) word operations instead of O(m/w).
The first pass takes k = max(64, |len(a) - len(b)|); it stops as soon as
the cell on the corner diagonal exceeds k, since values never fall along a
diagonal, and the next pass doubles k. Once the band would be wider than a
quarter of the shorter middle, the Myers/Hyyroe loop over the full middle
runs instead: a dissimilar pair pays that loop plus its failed band passes,
which cost about a tenth of it on the benchmark's shuffled curve pairs.

Semantic similarity is greedy string tiling coverage over normalized token
streams, so consistent identifier renames are invisible to it. The maximal
common runs are enumerated from seeds, as in Karp-Rabin greedy string
tiling (Wise 1993): every window of min_tile_len tokens of one stream is
indexed by its exact contents, each matching window of the other stream
that starts a run (it is at the start of either stream, or the tokens just
before differ) is extended to its full length, and the runs are then tiled
longest-first. Long runs are searched before short ones, as Running-Karp-
Rabin greedy string tiling does: a first pass finds the runs of
_LONG_RUNS tokens or more from a sparse index of one stream, and only the
stretches those tiles leave uncovered are searched for shorter runs. A
candidate that differs from its original by a few local edits is tiled by
a few long runs, so the second pass sees only the tokens around the edits.

tokenize keeps the streams of the last few texts, and lexes a new text only
around where it differs from the closest kept one (Wagner and Graham 1998,
"Efficient and flexible incremental parsing", re-scan only the damaged
region): a candidate is one local rewrite of a text already scored, so it
costs what its edit touched, and a sample's original is lexed once.

The combined score is the weighted mean of the two.
"""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from itertools import chain, islice, repeat

from .core import CodeSample, Language, PesoConfig
from .errors import EmptyStream, LanguageMismatch
from .lexing import NORMAL_BY_KIND, common_affixes, reuse_bound, scan


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


_TOKENIZED = 8  # texts tokenize keeps, most recently used last
_tokenized: OrderedDict[tuple[Language, str], tuple[array, tuple[str, ...]]] = OrderedDict()


def tokenize(sample: CodeSample) -> TokenStream:
    """Deterministic normalized token stream for a sample.

    Renaming an identifier consistently leaves the stream unchanged.
    Raises LexError (with offset) on unlexable input.

    The token starts and stream of the last _TOKENIZED texts are kept; a
    LexError is not. A new text is lexed only where it differs from the kept
    text of its language that shares the longest common prefix plus suffix
    with it, head and tail characters long. Two facts about a lexer step (see
    lexing) make this exact: a step reads nothing before its position, and a
    step that returns a token ending at e reads nothing past e + 2 (Rust's
    raw-string opener excepted). So every kept token before the last kept
    start at or below lexing.reuse_bound (head - 3, or less before that
    opener) is lexed the same in the new text, and the lexer reaches that
    start; scanning from there, once a token starts inside the common
    suffix at a kept start shifted by the length difference, the two lexers
    stand at the same position of equal texts, and the rest is the kept
    tail, shifted.
    """
    text, language = sample.text, sample.language
    key = (language, text)
    kept = _tokenized.get(key)
    if kept is not None:
        _tokenized.move_to_end(key)
        return TokenStream(kept[1])
    bases = [(old, *entry) for (lang, old), entry in _tokenized.items() if lang is language]
    _tokenized[key] = kept = _relex(text, language, bases)
    if len(_tokenized) > _TOKENIZED:
        _tokenized.popitem(last=False)
    return TokenStream(kept[1])


def _relex(text: str, language: Language, bases: list[tuple[str, array, tuple[str, ...]]]):
    """(token starts, normalized tokens) of text, reusing those of the best
    of bases, kept (text, starts, tokens) triples, as tokenize says."""
    head, tail, old, old_starts, old_tokens = max(
        ((*common_affixes(old, text), old, starts, tokens) for old, starts, tokens in bases),
        key=lambda base: base[0] + base[1], default=(0, 0, "", array("q"), ()),
    )
    k = max(bisect_right(old_starts, reuse_bound(old, head, language)) - 1, 0)
    pos = old_starts[k] if k else 0
    starts, tokens = old_starts[:k], list(old_tokens[:k])
    delta, suffix = len(text) - len(old), len(text) - tail
    normal = NORMAL_BY_KIND.get
    for kind, start, end in scan(text, language, pos):
        if start >= suffix:
            at = bisect_left(old_starts, start - delta, k)
            if at < len(old_starts) and old_starts[at] == start - delta:
                starts.extend([s + delta for s in old_starts[at:]])
                return starts, (*tokens, *old_tokens[at:])
        starts.append(start)
        tokens.append(normal(kind) or text[start:end])
    return starts, tuple(tokens)


_FIRST_BAND = 64  # the cutoff k of the first banded pass
_CHUNK = 128  # columns between re-anchoring the band's pattern masks


def levenshtein_distance(a: str, b: str) -> int:
    """Exact edit distance, computed on what is left once the common prefix
    and suffix are stripped: on doubling diagonal bands while they stay
    narrow, else by the bit-parallel loop over the full middle."""
    if a == b:
        return 0
    head, tail = common_affixes(a, b)
    a, b = a[head : len(a) - tail], b[head : len(b) - tail]
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) > len(b):
        a, b = b, a
    k = max(_FIRST_BAND, len(b) - len(a))
    while 4 * (k + 1) <= len(a):
        distance = _banded(a, b, k)
        if distance is not None:
            return distance
        k *= 2
    return _full_width(a, b)


def _full_width(a: str, b: str) -> int:
    """Myers/Hyyroe bit-parallel edit distance, one bit per character of a."""
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


def _banded(a: str, b: str, k: int) -> int | None:
    """The edit distance of a and b (len(a) <= len(b)) if it is at most k,
    else None.

    Row i aligns a[:i] and column j aligns b[:j]. The band holds the
    diagonals j - i from -x to d + x, d = len(b) - len(a) and
    x = (k - d) // 2: every path of cost at most k stays on them. Bit p of
    column j stands for row j - top + p, top = d + x, so the band moves down
    one row per column: the vertical deltas carry over unshifted and D0
    shifts right by one to meet them, where the full-width loop shifts HP
    and HN left instead. Rows at or above row 0 keep all-zero vectors, which
    makes row 0's horizontal delta +1. Bit x of column j is the corner
    diagonal's cell (j - d, j), one more than its diagonal predecessor
    exactly when its D0 bit is clear, so the count of clear bits is its
    value: the first d columns count d, since rows at or above 0 never set
    that bit.
    """
    m, n = len(a), len(b)
    x = (k - (n - m)) // 2
    width = n - m + 2 * x + 1
    top = n - m + x
    mask = (1 << width) - 1
    corner = 1 << x
    # Each character's row mask, in the frame of the current chunk's first
    # column: column j reads it shifted right by its distance from there,
    # and ORs in the bit of the row it brings into the band's bottom. Rows
    # 1 .. x+1 are in the band at column 1. Every _CHUNK columns the masks
    # move to the next chunk's frame, so they stay near width + _CHUNK bits;
    # the exit test runs there too.
    peq: dict[str | None, int] = {}
    for idx, ch in enumerate(a[: x + 1]):
        peq[ch] = peq.get(ch, 0) | (1 << (idx + top))
    get = peq.get
    # Column j >= 2 brings row j + x into the band's bottom bit.
    columns = zip(b, chain((None,), a[x + 1 :], repeat(None)))
    vp = mask ^ ((1 << top) - 1)
    vn = 0
    misses = 0
    for _ in range(0, n, _CHUNK):
        shift, bottom = 0, 1 << (width - 1)
        for cb, ca in islice(columns, _CHUNK):
            peq[ca] = get(ca, 0) | bottom
            bottom <<= 1
            eq = get(cb, 0) >> shift
            shift += 1
            d0 = ((((eq & vp) + vp) ^ vp) | eq | vn) & mask
            hp = vn | ((d0 | vp) ^ mask)
            hn = vp & d0
            if not d0 & corner:
                misses += 1
            d0 >>= 1
            vp = hn | ((d0 | hp) ^ mask)
            vn = hp & d0
        if misses > k:
            return None
        for ch in peq:
            peq[ch] >>= _CHUNK
    return misses


def surface_similarity(a: str, b: str) -> float:
    """1 - dist/max(|a|,|b|); 1.0 when both strings are empty. Symmetric."""
    if not a and not b:
        return 1.0
    return 1.0 - levenshtein_distance(a, b) / max(len(a), len(b))


def _gallop(a: str, b: str, i: int, j: int, length: int, limit: int) -> int:
    """How far a[i:] and b[j:] agree, at most limit, knowing that they agree
    for length: galloping slice comparisons, doubling while whole slices
    agree, then halving."""
    step = 8
    while length < limit:
        end = min(length + step, limit)
        if a[i + length : i + end] == b[j + length : j + end]:
            length = end
            step *= 2
        elif step > 1:
            step //= 2
        else:
            break
    return length


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
                runs.append((-_gallop(a, b, i, j, min_len, min(na - i, nb - j)), i, j))
    return runs


def _long_runs(a: str, b: str, min_len: int) -> list[tuple[int, int, int]]:
    """What _maximal_runs returns, found from a's windows of w = (min_len +
    1) // 2 characters that start at multiples of w, each run of min_len or
    more holding one whole: a window of b that matches one lies in a run,
    which galloping back and forth finds, unless an earlier window found it
    already."""
    w = (min_len + 1) // 2
    na, nb = len(a), len(b)
    index: dict[str, list[int]] = {}
    for i in range(0, na - w + 1, w):
        index.setdefault(a[i : i + w], []).append(i)
    reached: dict[int, int] = {}  # diagonal i - j -> end in b of the last run found on it
    runs = []
    ra, rb = a[::-1], b[::-1]
    for j in range(nb - w + 1):
        for i in index.get(b[j : j + w], ()):
            if reached.get(i - j, -1) > j:
                continue
            back = _gallop(ra, rb, na - i, nb - j, 0, min(i, j))
            length = _gallop(a, b, i, j, w, min(na - i, nb - j))
            reached[i - j] = j + length
            if back + length >= min_len:
                runs.append((-back - length, i - back, j - back))
    return runs


def _free_stretches(s: str, marked: bytearray, min_len: int, sep: str) -> tuple[str, list[int]]:
    """The unmarked stretches of s of min_len or more, joined by sep, and the
    offset in s of each character of the join (-1 for sep)."""
    parts: list[str] = []
    where: list[int] = []
    start = marked.find(0)
    while start >= 0:
        end = marked.find(1, start)
        end = len(s) if end < 0 else end
        if end - start >= min_len:
            parts.append(s[start:end])
            where += range(start, end)
            where.append(-1)
        start = marked.find(0, end)
    return sep.join(parts), where


_LONG_RUNS = 64  # the shortest run greedy_tiles queues in its first pass


def greedy_tiles(a_tokens: tuple[str, ...], b_tokens: tuple[str, ...], min_tile_len: int):
    """Non-overlapping tiles chosen longest-first.

    Policy: repeatedly take the longest common run of tokens not yet covered
    by a tile (ties broken by smallest position in a, then in b), until no
    run of at least min_tile_len remains.

    Runs wait in a queue ordered by that policy. While every uncovered
    common run that could be the next tile lies inside a queued run, a
    popped run that is still uncovered is the policy's next tile; one that
    is not is split around the covered tokens, and its clean pieces are
    queued again. Two passes fill the queue. The first queues the maximal
    runs of _LONG_RUNS tokens or more, which covers every run of that
    length. Once the queue's top falls below _LONG_RUNS, the next tile may
    be shorter, and the second pass queues the maximal common runs of the
    stretches still uncovered, if both streams hold one of min_tile_len;
    otherwise nothing more can tile. After a similar pair's long runs are
    tiled, those stretches are the few tokens around its edits, so the
    second pass costs what the edits touched.
    """
    vocab: dict[str, str] = {}
    a = "".join([vocab.setdefault(t, chr(len(vocab))) for t in a_tokens])
    b = "".join([vocab.setdefault(t, chr(len(vocab))) for t in b_tokens])

    long = max(_LONG_RUNS, min_tile_len)
    heap = _long_runs(a, b, long)
    heapq.heapify(heap)
    short_queued = long == min_tile_len
    marked_a = bytearray(len(a))
    marked_b = bytearray(len(b))
    tiles: list[tuple[int, int, int]] = []
    while True:
        if not short_queued and (not heap or -heap[0][0] < long):
            # Separators that occur in neither stream keep runs inside stretches.
            free_a, where_a = _free_stretches(a, marked_a, min_tile_len, chr(len(vocab)))
            free_b, where_b = _free_stretches(b, marked_b, min_tile_len, chr(len(vocab) + 1))
            if not free_a or not free_b:
                return tiles
            heap += [(n, where_a[i], where_b[j]) for n, i, j in _maximal_runs(free_a, free_b, min_tile_len)]
            heapq.heapify(heap)
            short_queued = True
        if not heap:
            return tiles
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


def score_pair(original: CodeSample, candidate: CodeSample, config: PesoConfig) -> SimilarityScore:
    """Full similarity triple between two samples of the same language."""
    if original.language is not candidate.language:
        raise LanguageMismatch(
            f"{original.language.value} vs {candidate.language.value}"
        )
    s1 = surface_similarity(original.text, candidate.text)
    s2 = semantic_similarity(tokenize(original), tokenize(candidate), config.min_tile_len)
    return SimilarityScore(s1=s1, s2=s2, ss=combined_score(s1, s2, config))
