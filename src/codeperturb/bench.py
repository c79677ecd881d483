"""Corpus filtering and masked code-completion task construction.

Tasks mask 1, 3, or 5 contiguous maskable lines inside a perturbed
function, posed identically over the original and perturbed variants so
the accuracy delta isolates the perturbation effect. A line is maskable
when a token starts on it: the lexer decides what is a comment, so blank
lines, comment lines, block-comment interiors and the inner lines of a
multi-line string are never masked.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

from .analysis import (PYTHON_LINE_END, FunctionSpan, brace_functions, find_functions, line_of_offset,
                       line_offsets, python_view)
from .core import CodeSample, Language
from .errors import LexError, ParseError, RegionUnavailable
from .lexing import lex
from .verify import syntax_check

MASK_SIZES = (1, 3, 5)


class FilterReason(Enum):
    TOO_FEW_LINES = "TOO_FEW_LINES"
    TOO_FEW_CHARS = "TOO_FEW_CHARS"
    SYNTAX_INVALID = "SYNTAX_INVALID"


MIN_LINES = 40
MIN_CHARS = 100


@dataclass(frozen=True)
class FilterVerdict:
    sample_id: str
    kept: bool
    reasons: frozenset[FilterReason]
    diagnostics: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "sample_id": self.sample_id,
            "kept": self.kept,
            "reasons": sorted(r.value for r in self.reasons),
            "diagnostics": list(self.diagnostics),
        }


def filter_sample(sample: CodeSample) -> FilterVerdict:
    reasons = set()
    text = sample.text
    # Lines end where the program ends them: at ast's line ends in Python, at "\n" elsewhere.
    lines = PYTHON_LINE_END.split(text)[::2] if sample.language is Language.PYTHON else text.split("\n")
    if len(lines) - (lines[-1] == "") < MIN_LINES:
        reasons.add(FilterReason.TOO_FEW_LINES)
    if len(sample.text) < MIN_CHARS:
        reasons.add(FilterReason.TOO_FEW_CHARS)
    ok, diagnostics = syntax_check(sample)
    if not ok:
        reasons.add(FilterReason.SYNTAX_INVALID)
    return FilterVerdict(
        sample_id=sample.id,
        kept=not reasons,
        reasons=frozenset(reasons),
        diagnostics=tuple(diagnostics),
    )


def filter_corpus(samples: list[CodeSample]) -> list[FilterVerdict]:
    """Pure, order-independent filtering; one verdict per sample."""
    return [filter_sample(s) for s in samples]


# ---------------------------------------------------------------------------
# Completion tasks
# ---------------------------------------------------------------------------

class Variant(Enum):
    ORIGINAL = "original"
    PERTURBED = "perturbed"


@dataclass(frozen=True)
class CompletionTask:
    task_id: str
    sample_id: str
    variant: Variant
    mask_lines: int
    prefix: str
    ground_truth: str
    suffix: str
    region_anchor: dict

    def to_dict(self) -> dict:
        return {
            "task_id": self.task_id,
            "sample_id": self.sample_id,
            "variant": self.variant.value,
            "mask_lines": self.mask_lines,
            "prefix": self.prefix,
            "ground_truth": self.ground_truth,
            "suffix": self.suffix,
            "region_anchor": dict(self.region_anchor),
        }

    @classmethod
    def from_dict(cls, record: dict) -> "CompletionTask":
        """KeyError, TypeError or ValueError for a record that is no task."""
        texts = {key: record[key] for key in ("task_id", "sample_id", "prefix", "ground_truth", "suffix")}
        if not all(isinstance(text, str) for text in texts.values()):
            raise TypeError("task_id, sample_id, prefix, ground_truth and suffix must be strings")
        return cls(
            variant=Variant(record["variant"]),
            mask_lines=int(record["mask_lines"]),
            region_anchor=record.get("region_anchor", {}),
            **texts,
        )


@dataclass(frozen=True)
class PerturbedPair:
    """The original and perturbed variants plus the trace facts needed for
    pairing: which functions were perturbed (named as in the original) and
    how the original function names map to the perturbed ones."""

    original: CodeSample
    perturbed: CodeSample
    entry_points: tuple[str, ...]
    function_map: dict


def _layout(text: str, language: Language) -> tuple[dict[str, FunctionSpan], list[int], frozenset[int]]:
    """A text's functions by name; its line starts, as find_functions
    numbers the lines, plus a final sentinel at len(text); and its maskable
    lines, those a token starts on. Lexes the text once."""
    if language is Language.PYTHON:
        functions = find_functions(text, language)
        starts, tokens = python_view(text).offsets, lex(text, language)
    else:
        starts, tokens = line_offsets(text), lex(text, language)
        functions = brace_functions(tokens, starts, language)
    return {f.name: f for f in functions}, starts, frozenset(line_of_offset(starts, t.start) for t in tokens)


def _eligible_blocks(maskable: frozenset[int], span: FunctionSpan) -> list[tuple[int, int]]:
    """Maximal runs of consecutive maskable lines strictly inside the body."""
    blocks = []
    run_start = None
    for ln in range(span.body_start_line, span.body_end_line + 1):
        if ln in maskable:
            if run_start is None:
                run_start = ln
        else:
            if run_start is not None:
                blocks.append((run_start, ln - 1))
                run_start = None
    if run_start is not None:
        blocks.append((run_start, span.body_end_line))
    return blocks


def _slice_by_lines(text: str, offsets: list[int], start_line: int, n_lines: int) -> tuple[str, str, str]:
    start = offsets[start_line]
    end_line = start_line + n_lines - 1
    end = offsets[end_line + 1] if end_line + 1 < len(offsets) else len(text)
    return text[:start], text[start:end], text[end:]


def _pick_region(blocks: list[tuple[int, int]], k: int, rng: random.Random) -> int:
    """The first line of a k-line region in one of the blocks of k or more
    lines, of which there is at least one."""
    roomy = [(lo, hi) for lo, hi in blocks if hi - lo + 1 >= k]
    lo, hi = roomy[rng.randrange(len(roomy))]
    return lo + rng.randrange(hi - lo + 2 - k)


def _map_region_to_original(
    span: FunctionSpan, blocks: list[tuple[int, int]], ratio: float, k: int
) -> int:
    roomy = [(lo, hi) for lo, hi in blocks if hi - lo + 1 >= k]
    body_len = max(1, span.body_end_line - span.body_start_line + 1)
    target = span.body_start_line + round(ratio * body_len)
    best = min(roomy, key=lambda b: min(abs(target - b[0]), abs(target - b[1])))
    lo, hi = best
    return max(lo, min(target, hi - k + 1))


def build_tasks(pair: PerturbedPair, seed: int) -> list[CompletionTask]:
    """Six tasks per pair when every mask size fits: 3 sizes x 2 variants.

    Sizes whose regions do not fit are skipped; raises RegionUnavailable
    only when nothing can be emitted at all.
    """
    rng = random.Random(seed)
    language = pair.original.language
    try:
        orig_fns, orig_starts, orig_maskable = _layout(pair.original.text, language)
        pert_fns, pert_starts, pert_maskable = _layout(pair.perturbed.text, language)
    except (ParseError, LexError) as exc:
        raise RegionUnavailable(f"cannot analyze pair {pair.original.id}: {exc}") from exc
    fmap = dict(pair.function_map)
    candidates = []
    for orig_name in pair.entry_points:
        pert_name = fmap.get(orig_name, orig_name)
        if orig_name in orig_fns and pert_name in pert_fns:
            candidates.append((orig_name, pert_name))
    if not candidates:
        raise RegionUnavailable(f"no perturbed function is anchorable for {pair.original.id}")
    tasks: list[CompletionTask] = []
    for k in MASK_SIZES:
        sized = []
        for orig_name, pert_name in candidates:
            p_span = pert_fns[pert_name]
            o_span = orig_fns[orig_name]
            p_blocks = _eligible_blocks(pert_maskable, p_span)
            o_blocks = _eligible_blocks(orig_maskable, o_span)
            if any(hi - lo + 1 >= k for lo, hi in p_blocks) and any(
                hi - lo + 1 >= k for lo, hi in o_blocks
            ):
                sized.append((orig_name, pert_name, p_span, o_span, p_blocks, o_blocks))
        if not sized:
            continue
        orig_name, pert_name, p_span, o_span, p_blocks, o_blocks = sized[rng.randrange(len(sized))]
        p_start = _pick_region(p_blocks, k, rng)
        body_len = max(1, p_span.body_end_line - p_span.body_start_line + 1)
        ratio = (p_start - p_span.body_start_line) / body_len
        o_start = _map_region_to_original(o_span, o_blocks, ratio, k)
        anchor = {
            "entry_point": orig_name,
            "mask_lines": k,
            "offset_ratio": round(ratio, 6),
        }
        for variant, text, starts, start in (
            (Variant.ORIGINAL, pair.original.text, orig_starts, o_start),
            (Variant.PERTURBED, pair.perturbed.text, pert_starts, p_start),
        ):
            prefix, truth, suffix = _slice_by_lines(text, starts, start, k)
            tasks.append(
                CompletionTask(
                    task_id=f"{pair.original.id}::L{k}::{variant.value}",
                    sample_id=pair.original.id,
                    variant=variant,
                    mask_lines=k,
                    prefix=prefix,
                    ground_truth=truth,
                    suffix=suffix,
                    region_anchor=anchor,
                )
            )
    if not tasks:
        raise RegionUnavailable(f"no mask size fits any perturbed function of {pair.original.id}")
    return tasks


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

class Judge(Enum):
    EXACT_MATCH = "exact"
    NORMALIZED_MATCH = "normalized"
    EXTERNAL = "external"


def _normalize(text: str) -> str:
    return "\n".join(" ".join(ln.split()) for ln in text.splitlines() if ln.strip())


@dataclass(frozen=True)
class AccuracyReport:
    buckets: dict  # (variant value, mask_lines) -> {total, correct, accuracy}
    deltas: dict  # mask_lines -> original minus perturbed accuracy
    missing: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "buckets": {f"{v}:{k}": stats for (v, k), stats in sorted(self.buckets.items())},
            "deltas": {str(k): v for k, v in sorted(self.deltas.items())},
            "missing": list(self.missing),
        }

    @classmethod
    def from_dict(cls, record: dict) -> "AccuracyReport":
        buckets = {}
        for key, stats in record.get("buckets", {}).items():
            variant, size = key.rsplit(":", 1)
            buckets[(variant, int(size))] = stats
        return cls(
            buckets=buckets,
            deltas={int(k): v for k, v in record.get("deltas", {}).items()},
            missing=tuple(record.get("missing", ())),
        )


def evaluate_tasks(
    tasks: list[CompletionTask],
    completions: dict,
    judge: Judge = Judge.NORMALIZED_MATCH,
    external_judge=None,
) -> AccuracyReport:
    """Per-(variant, mask size) accuracy plus the original-minus-perturbed
    delta per size. A missing completion counts as incorrect."""
    if judge is Judge.EXTERNAL and external_judge is None:
        raise ValueError("EXTERNAL judging requires an external_judge callable")
    totals: dict[tuple[str, int], list[int]] = {}
    missing = []
    for task in tasks:
        key = (task.variant.value, task.mask_lines)
        totals.setdefault(key, [0, 0])
        completion = completions.get(task.task_id)
        if completion is None:
            missing.append(task.task_id)
            totals[key][0] += 1
            continue
        if judge is Judge.EXACT_MATCH:
            correct = completion == task.ground_truth
        elif judge is Judge.NORMALIZED_MATCH:
            correct = _normalize(completion) == _normalize(task.ground_truth)
        else:
            correct = bool(external_judge(task, completion))
        totals[key][0] += 1
        totals[key][1] += int(correct)
    buckets = {
        key: {
            "total": t,
            "correct": c,
            "accuracy": (c / t) if t else 0.0,
        }
        for key, (t, c) in totals.items()
    }
    deltas = {}
    for k in MASK_SIZES:
        o = buckets.get((Variant.ORIGINAL.value, k))
        p = buckets.get((Variant.PERTURBED.value, k))
        if o and p and o["total"] and p["total"]:
            deltas[k] = o["accuracy"] - p["accuracy"]
    return AccuracyReport(buckets=buckets, deltas=deltas, missing=tuple(sorted(missing)))


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def win_counts(rows_a: dict, rows_b: dict) -> dict:
    """Per-metric counts of rows where one column's score is strictly
    higher; ties count for neither."""
    out = {}
    for metric in ("s1", "s2", "ss"):
        a_higher = b_higher = ties = 0
        for sample_id in sorted(set(rows_a) & set(rows_b)):
            a = rows_a[sample_id][metric]
            b = rows_b[sample_id][metric]
            if a > b:
                a_higher += 1
            elif b > a:
                b_higher += 1
            else:
                ties += 1
        out[metric] = {"a_higher": a_higher, "b_higher": b_higher, "ties": ties}
    return out


def _summary_rows(summaries) -> dict:
    return {
        s["sample_id"]: {"s1": s["final_s1"], "s2": s["final_s2"], "ss": s["final_ss"]}
        for s in summaries
    }


def report_run(
    summaries: list[dict],
    accuracy: AccuracyReport | None = None,
    baseline_summaries: list[dict] | None = None,
) -> dict:
    """Structured summary document: per-sample triples, aggregate means,
    optional selection-policy win counts, accuracy tables."""
    rows = _summary_rows(summaries)
    doc: dict = {
        "samples": [
            {"sample_id": sid, **scores} for sid, scores in sorted(rows.items())
        ],
        "means": {},
    }
    if rows:
        for metric in ("s1", "s2", "ss"):
            doc["means"][metric] = sum(r[metric] for r in rows.values()) / len(rows)
    if baseline_summaries is not None:
        base_rows = _summary_rows(baseline_summaries)
        doc["selection_vs_baseline"] = win_counts(rows, base_rows)
        if base_rows:
            doc["baseline_means"] = {
                metric: sum(r[metric] for r in base_rows.values()) / len(base_rows)
                for metric in ("s1", "s2", "ss")
            }
    if accuracy is not None:
        doc["accuracy"] = accuracy.to_dict()
    return doc


def render_report(doc: dict) -> str:
    """Human-readable rendering of a report document."""
    lines = []
    if doc.get("samples"):
        lines.append(f"{'sample':24s} {'s1':>8s} {'s2':>8s} {'ss':>8s}")
        for row in doc["samples"]:
            lines.append(
                f"{row['sample_id'][:24]:24s} {row['s1']:8.4f} {row['s2']:8.4f} {row['ss']:8.4f}"
            )
        means = doc["means"]
        lines.append(f"{'mean':24s} {means['s1']:8.4f} {means['s2']:8.4f} {means['ss']:8.4f}")
    else:
        lines.append("no samples")
    if "selection_vs_baseline" in doc:
        lines.append("")
        lines.append("optimized vs random baseline (higher-similarity counts):")
        for metric, wins in doc["selection_vs_baseline"].items():
            lines.append(
                f"  {metric}: optimized {wins['a_higher']}, baseline {wins['b_higher']}, ties {wins['ties']}"
            )
    if "accuracy" in doc:
        lines.append("")
        lines.append("completion accuracy:")
        for bucket, stats in doc["accuracy"]["buckets"].items():
            lines.append(f"  {bucket}: {stats['correct']}/{stats['total']} = {stats['accuracy']:.3f}")
        for size, delta in doc["accuracy"]["deltas"].items():
            lines.append(f"  delta (original - perturbed) @{size} lines: {delta:+.3f}")
    return "\n".join(lines) + "\n"
