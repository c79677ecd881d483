"""Correctness checks that do not go through ``codeperturb.verify``.

Programs are re-run with the benchmark's own ``python``/``gcc`` calls, final
similarity scores are recomputed with the test suite's independent oracles
(``tests/oracles.py``), and each workload's decisions are hashed with timing
fields removed so that repetitions, traced and untraced, can be compared.
"""

from __future__ import annotations

import ast
import concurrent.futures
import hashlib
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

_TIMING_KEYS = {"time", "timing", "timings", "duration", "elapsed", "seconds", "wall"}
_TIMING_SUFFIXES = ("_s", "_ms", "_us", "_ns", "_sec", "_time", "_seconds",
                    "_duration", "_elapsed", "_timing", "_timings")


def is_timing_key(key: str) -> bool:
    key = key.lower()
    return key in _TIMING_KEYS or key.endswith(_TIMING_SUFFIXES)


def strip_timing(value):
    """The value with every dict entry under a timing key removed, recursively."""
    if isinstance(value, dict):
        return {k: strip_timing(v) for k, v in value.items() if not is_timing_key(k)}
    if isinstance(value, list):
        return [strip_timing(v) for v in value]
    return value


def decisions_digest(groups: list[tuple[str, list[dict]]], scrub: str | None = None) -> str:
    """sha256 over named groups of trace records, timing fields removed.

    `scrub` is a path prefix (the scratch directory programs were compiled
    in) replaced by a fixed token, so diagnostics quoting it still compare.
    """
    h = hashlib.sha256()
    for name, records in sorted(groups, key=lambda g: g[0]):
        h.update(name.encode() + b"\0")
        for record in records:
            line = json.dumps(strip_timing(record), sort_keys=True)
            if scrub:
                line = re.sub(re.escape(scrub) + r"[^\s\"':]*", "<tmp>", line)
            h.update(line.encode() + b"\n")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Behaviour: re-run programs with our own toolchain calls
# ---------------------------------------------------------------------------

def _behaviour(language: str, text: str, inputs: list[str], workdir: Path) -> list[tuple[bytes, int]]:
    with tempfile.TemporaryDirectory(dir=workdir) as scratch:
        if language == "python":
            path = Path(scratch, "prog.py")
            path.write_text(text, encoding="utf-8")
            argv = [sys.executable, "-I", "-S", str(path)]
        elif language == "c_cpp":
            path = Path(scratch, "prog.c")
            path.write_text(text, encoding="utf-8")
            exe = str(Path(scratch, "prog"))
            build = subprocess.run(["gcc", str(path), "-o", exe, "-lm"], capture_output=True,
                                   timeout=60, cwd=scratch)
            if build.returncode != 0:
                return [(b"gcc: " + build.stderr[-300:], -1)]
            argv = [exe]
        else:
            raise ValueError(f"no runner for {language}")
        out = []
        for stdin_text in inputs:
            proc = subprocess.run(argv, input=stdin_text.encode(), capture_output=True,
                                  timeout=20, cwd=scratch)
            out.append((proc.stdout, proc.returncode))
        return out


def behaviour_mismatches(pairs: list[dict], workdir: Path, jobs: int) -> list[str]:
    """Ids of pairs {id, language, original, candidate, inputs} whose
    candidate's stdout or exit status differs from the original's. Each
    distinct original is run once."""
    def key(pair):
        return pair["language"], pair["original"], tuple(pair["inputs"])

    originals = list(dict.fromkeys(map(key, pairs)))
    with concurrent.futures.ThreadPoolExecutor(max_workers=max(1, jobs)) as pool:
        expected = dict(zip(originals, pool.map(lambda k: _behaviour(k[0], k[1], list(k[2]), workdir),
                                                originals)))
        got = pool.map(lambda p: _behaviour(p["language"], p["candidate"], p["inputs"], workdir), pairs)
        return [p["id"] for p, behaviour in zip(pairs, got) if behaviour != expected[key(p)]]


# ---------------------------------------------------------------------------
# Scores: recompute final s1/s2 with the independent oracles
# ---------------------------------------------------------------------------

def score_mismatches(summaries: list[dict], finals: dict[str, str], originals: dict[str, dict],
                     min_tile_len: int) -> list[str]:
    from codeperturb.core import CodeSample, Language
    from codeperturb.similarity import tokenize
    from tests.oracles import brute_force_coverage, dp_levenshtein

    bad = []
    for summary in summaries:
        sid = summary["sample_id"]
        a, b = originals[sid]["content"], finals[sid]
        language = Language.parse(originals[sid]["language"])
        s1 = 1.0 - dp_levenshtein(a, b) / max(len(a), len(b))
        ta = tokenize(CodeSample(id=sid, language=language, text=a)).tokens
        tb = tokenize(CodeSample(id=sid, language=language, text=b)).tokens
        ca, cb = (ta, tb) if ta <= tb else (tb, ta)
        s2 = brute_force_coverage(ca, cb, min_tile_len)
        if abs(s1 - summary["final_s1"]) > 1e-9 or abs(s2 - summary["final_s2"]) > 1e-9:
            bad.append(sid)
    return bad


def unparsable(modules: dict[str, str]) -> list[str]:
    bad = []
    for sid, text in modules.items():
        try:
            ast.parse(text)
        except SyntaxError:
            bad.append(sid)
    return bad
