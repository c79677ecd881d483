"""In-memory tracer for the traced benchmark run, and the per-layer metrics
computed from its spans.

The tracer wraps public functions of each codeperturb layer by rebinding
every module attribute that holds the function, so that calls through
``codeperturb.cli.verify``, ``codeperturb.peso.perturb`` and the like all
land in the wrapper. Each thread keeps its own span stack (``--jobs`` runs
peso in a thread pool). A span's self time is its duration minus the time
its child spans cover; spans never overlap within one thread, so that is
the sum of the children's durations.

Two kinds of call are counted as probes rather than spans, because they
are resources a layer waits on, not layers: ``ProgramRunner.run`` and the
``subprocess.run`` calls made by the verify layer. Their time stays in the
self time of the layer that made them.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time

# (layer, module, attribute path) of each wrapped function.
SPAN_TARGETS = (
    ("corpusio", "codeperturb.corpusio", "read_corpus"),
    ("corpusio", "codeperturb.corpusio", "write_jsonl"),
    ("peso", "codeperturb.peso", "run"),
    ("transform", "codeperturb.transform", "perturb"),
    ("verify", "codeperturb.verify", "verify"),
    ("verify.syntax", "codeperturb.verify", "syntax_check"),
    ("verify.compile", "codeperturb.verify", "compile_check"),
    ("verify.execute", "codeperturb.verify", "execution_equivalence"),
    ("similarity", "codeperturb.similarity", "score_pair"),
    ("similarity.tokenize", "codeperturb.similarity", "tokenize"),
    ("similarity.levenshtein", "codeperturb.similarity", "levenshtein_distance"),
    ("similarity.tiling", "codeperturb.similarity", "greedy_tiles"),
    ("analysis.find_functions", "codeperturb.analysis", "find_functions"),
    ("lexing.lex", "codeperturb.lexing", "lex"),
)
RUNNER_TARGET = ("verify.runner", "codeperturb.verify", "ProgramRunner.run")
SUBPROCESS_TARGET = ("verify.subprocess", "codeperturb.verify", "subprocess.run")


def _resolve(module: str, path: str):
    """(owner, attribute name, object) or None when the target is gone."""
    owner = importlib.import_module(module)
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    target = getattr(owner, name, None)
    return None if target is None else (owner, name, target)


def classify_argv(argv, toolchains) -> str:
    """'compile', 'run' or 'other', by matching argv against the toolchains'
    command templates: literal elements must be equal, placeholders such as
    {file} and {exe} match anything."""
    argv = [str(a) for a in argv]
    for kind, field in (("compile", "compile_argv"), ("run", "run_argv")):
        for chain in toolchains:
            template = getattr(chain, field, None)
            if template and len(template) == len(argv) and all(
                "{" in t or t == a for t, a in zip(template, argv)
            ):
                return kind
    return "other"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self.probes: list[dict] = []
        self.absent: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._restore: list[tuple[object, str, object]] = []

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.subprocess_runs = 0
        return local

    def _record(self, bucket: list, entry: dict) -> None:
        with self._lock:
            bucket.append(entry)

    def wrap_span(self, layer: str, fn):
        def traced(*args, **kwargs):
            state = self._state()
            parent = state.stack[-1] if state.stack else None
            frame = {"id": next(self._ids), "child_s": 0.0}
            state.stack.append(frame)
            error = outcome = None
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
                passed = getattr(result, "passed", None)
                outcome = passed if isinstance(passed, bool) else None
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = self.clock()
                state.stack.pop()
                if parent is not None:
                    parent["child_s"] += end - start
                self._record(self.spans, {
                    "layer": layer,
                    "id": frame["id"],
                    "parent": None if parent is None else parent["id"],
                    "thread": threading.get_ident(),
                    "start": start,
                    "end": end,
                    "self_s": (end - start) - frame["child_s"],
                    "error": error,
                    "outcome": outcome,
                })

        return traced

    def wrap_runner(self, layer: str, fn):
        def counted(*args, **kwargs):
            state = self._state()
            before = state.subprocess_runs
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._record(self.probes, {
                    "layer": layer,
                    "start": start,
                    "end": self.clock(),
                    "hit": state.subprocess_runs == before,
                })

        return counted

    def wrap_subprocess(self, layer: str, fn, toolchains):
        def counted(*args, **kwargs):
            argv = args[0] if args else kwargs.get("args", ())
            kind = classify_argv(argv, toolchains)
            state = self._state()
            if kind == "run":
                state.subprocess_runs += 1
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._record(self.probes, {
                    "layer": layer, "start": start, "end": self.clock(), "kind": kind,
                })

        return counted

    def _bind(self, owner, name: str, original, wrapper) -> None:
        """Point every codeperturb module attribute holding `original`, and
        the owner's own attribute, at `wrapper`."""
        holders = [(owner, name)]
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] != "codeperturb" or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original and (module, attr) != (owner, name):
                    holders.append((module, attr))
        for holder, attr in holders:
            self._restore.append((holder, attr, original))
            setattr(holder, attr, wrapper)

    def install(self, toolchains) -> None:
        targets = [(layer, module, path, "span") for layer, module, path in SPAN_TARGETS]
        targets += [(*RUNNER_TARGET, "runner"), (*SUBPROCESS_TARGET, "subprocess")]
        for layer, module, path, kind in targets:
            found = _resolve(module, path)
            if found is None:
                self.absent.append(f"{module}.{path}")
                continue
            owner, name, original = found
            if kind == "span":
                wrapper = self.wrap_span(layer, original)
            elif kind == "runner":
                wrapper = self.wrap_runner(layer, original)
            else:
                wrapper = self.wrap_subprocess(layer, original, toolchains)
            self._bind(owner, name, original, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict], probes: list[dict]) -> dict[str, float]:
    """The per-layer metrics of one traced workload rep."""
    by_layer: dict[str, list[dict]] = {}
    for span in spans:
        by_layer.setdefault(span["layer"], []).append(span)

    def calls(layer):
        return len(by_layer.get(layer, ()))

    def total(layer):
        return sum(s["end"] - s["start"] for s in by_layer.get(layer, ()))

    def self_total(layer):
        return sum(s["self_s"] for s in by_layer.get(layer, ()))

    peso = {s["id"]: s for s in by_layer.get("peso", ())}
    attempts: dict[int, list[dict]] = {pid: [] for pid in peso}
    for span in by_layer.get("transform", ()):
        if span["parent"] in attempts:
            attempts[span["parent"]].append(span)
    # An attempt starts at its perturb call and lasts until the next
    # attempt of the same run starts, or the run ends.
    attempt_ms = []
    for pid, calls_in_run in attempts.items():
        calls_in_run.sort(key=lambda s: s["start"])
        ends = [s["start"] for s in calls_in_run[1:]] + [peso[pid]["end"]]
        attempt_ms += [(end - s["start"]) * 1000 for s, end in zip(calls_in_run, ends)]
    verified_in_peso = sum(1 for s in by_layer.get("verify", ()) if s["parent"] in peso)

    transform_errors = [s["error"] for s in by_layer.get("transform", ())]
    verify_outcomes = [s["outcome"] for s in by_layer.get("verify", ())]
    runner = [p for p in probes if p["layer"] == "verify.runner"]
    subprocs = [p for p in probes if p["layer"] == "verify.subprocess"]

    return {
        "peso.attempts": len(attempt_ms),
        "peso.attempt_ms.p50": percentile(attempt_ms, 50),
        "peso.attempt_ms.p95": percentile(attempt_ms, 95),
        "peso.self_s": self_total("peso"),
        "peso.useful_ratio": _ratio(verified_in_peso, len(attempt_ms)),
        "transform.calls": calls("transform"),
        "transform.self_s": self_total("transform"),
        "transform.unsupported": transform_errors.count("UnsupportedCombination"),
        "transform.not_applicable": transform_errors.count("NotApplicable"),
        "verify.calls": calls("verify"),
        "verify.s": total("verify"),
        "verify.self_s": self_total("verify"),
        "verify.pass_ratio": _ratio(verify_outcomes.count(True), len(verify_outcomes)),
        "verify.syntax.s": total("verify.syntax"),
        "verify.compile.calls": calls("verify.compile"),
        "verify.compile.s": total("verify.compile"),
        "verify.execute.calls": calls("verify.execute"),
        "verify.execute.s": total("verify.execute"),
        "verify.runner.runs": len(runner),
        "verify.runner.hit_ratio": _ratio(sum(p["hit"] for p in runner), len(runner)),
        "verify.subprocess.compile": sum(p["kind"] == "compile" for p in subprocs),
        "verify.subprocess.run": sum(p["kind"] == "run" for p in subprocs),
        "verify.subprocess.s": sum(p["end"] - p["start"] for p in subprocs),
        "similarity.calls": calls("similarity"),
        "similarity.s": total("similarity"),
        "similarity.tokenize.s": total("similarity.tokenize"),
        "similarity.levenshtein.s": total("similarity.levenshtein"),
        "similarity.tiling.s": total("similarity.tiling"),
        "analysis.find_functions.calls": calls("analysis.find_functions"),
        "analysis.find_functions.s": total("analysis.find_functions"),
        "lexing.lex.calls": calls("lexing.lex"),
        "lexing.lex.self_s": self_total("lexing.lex"),
        "corpusio.s": total("corpusio"),
    }


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time summed per layer, for reports."""
    out: dict[str, float] = {}
    for span in spans:
        out[span["layer"]] = out.get(span["layer"], 0.0) + span["self_s"]
    return out
