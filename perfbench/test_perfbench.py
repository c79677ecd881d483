"""Tests for the benchmark's own helpers: python3 -m pytest perfbench -q"""

from __future__ import annotations

import ast
import json
import sys
import threading
from pathlib import Path

import pytest

import checks
import inputs
import run
import spans

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def fixtures():
    return inputs.load_fixtures(ROOT)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# ---------------------------------------------------------------------------
# Seeded generation
# ---------------------------------------------------------------------------

def test_generation_is_deterministic_per_seed(fixtures):
    def build(seed):
        rng = inputs.rng_for("w", seed)
        return (inputs.large_corpus(fixtures, rng, (300, 900)),
                inputs.oneshot_methods(rng),
                inputs.curve_pair(fixtures, rng, 200))

    assert build(7) == build(7)
    assert build(7) != build(8)


def test_large_modules_parse_and_reach_their_size(fixtures):
    modules = inputs.large_corpus(fixtures, inputs.rng_for("large-stub", 3), (1000, 2000))
    for module, target in zip(modules, (1000, 2000)):
        ast.parse(module["content"])
        assert target <= inputs.token_count(module["content"]) < target + 400


def test_oneshot_methods_take_one_per_category():
    methods = inputs.oneshot_methods(inputs.rng_for("oneshot-exec", 1))
    assert [m in ms for m, ms in zip(methods, inputs.ONESHOT_METHODS.values())] == [True] * 5


def test_curve_pair_differs_even_for_one_copy(fixtures):
    original, candidate = inputs.curve_pair(fixtures, inputs.rng_for("curve", 1), 50)
    assert original != candidate
    assert inputs.token_count(original) == inputs.token_count(candidate)


# ---------------------------------------------------------------------------
# Units and checks
# ---------------------------------------------------------------------------

def test_repetition_wall_sums_the_median_of_each_unit():
    reps = [{"unit": ("a",), "wall_s": w} for w in (1.0, 9.0, 2.0)]
    reps += [{"unit": ("b",), "wall_s": w} for w in (5.0, 7.0)]
    assert run.repetition_wall(reps) == 2.0 + 6.0
    assert [len(runs) for runs in run.by_unit(reps)] == [3, 2]


def test_units_split_only_independent_parts(tmp_path):
    fixture = run.Workload("fixture-exec", 1, tmp_path)
    shares = fixture.units(split=True)
    assert sorted(sid for share in shares for sid in share) == sorted(r["id"] for r in fixture.records)
    assert fixture.units(split=False) == [()]
    lines = fixture.corpus_for(shares[1]).read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["id"] for line in lines] == list(shares[1])
    oneshot = run.Workload("oneshot-exec", 1, tmp_path)
    assert oneshot.units(split=True) == [(m,) for m in oneshot.methods]
    assert run.Workload("large-stub", 1, tmp_path).units(split=True) == [()]


def test_behaviour_check_flags_only_changed_output(tmp_path):
    original = "import sys\nprint(sum(map(int, sys.stdin.read().split())))\n"
    same = "import sys\nvalues = sys.stdin.read().split()\nprint(sum(int(v) for v in values))\n"
    changed = "import sys\nprint(sum(map(int, sys.stdin.read().split())) + 1)\n"
    pairs = [{"id": sid, "language": "python", "original": original, "candidate": candidate,
              "inputs": ["1 2 3\n", "\n"]} for sid, candidate in (("same", same), ("changed", changed))]
    assert checks.behaviour_mismatches(pairs, tmp_path, 2) == ["changed"]


# ---------------------------------------------------------------------------
# Tracer arithmetic
# ---------------------------------------------------------------------------

def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    traced_leaf = tracer.wrap_span("leaf", leaf)

    def outer():
        clock.now += 1.0
        traced_leaf()
        traced_leaf()
        clock.now += 3.0

    tracer.wrap_span("outer", outer)()
    by_layer = {}
    for span in tracer.spans:
        by_layer.setdefault(span["layer"], []).append(span)
    (top,) = by_layer["outer"]
    assert top["end"] - top["start"] == 8.0
    assert top["self_s"] == 4.0
    assert [s["self_s"] for s in by_layer["leaf"]] == [2.0, 2.0]
    assert {s["parent"] for s in by_layer["leaf"]} == {top["id"]}
    assert spans.self_times(tracer.spans) == {"outer": 4.0, "leaf": 4.0}


def test_other_threads_keep_their_own_stack():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    traced_leaf = tracer.wrap_span("leaf", lambda: None)

    def outer():
        worker = threading.Thread(target=traced_leaf)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        clock.now += 1.0

    tracer.wrap_span("outer", outer)()
    leaf = next(s for s in tracer.spans if s["layer"] == "leaf")
    top = next(s for s in tracer.spans if s["layer"] == "outer")
    assert leaf["parent"] is None
    assert top["self_s"] == 1.0


def test_errors_are_recorded_and_reraised():
    tracer = spans.Tracer(clock=FakeClock())

    class NotApplicable(Exception):
        pass

    def fails():
        raise NotApplicable("no site")

    with pytest.raises(NotApplicable):
        tracer.wrap_span("transform", fails)()
    assert tracer.spans[0]["error"] == "NotApplicable"


def test_attempts_run_from_one_perturb_call_to_the_next():
    def span(id, layer, start, end, parent=None, error=None, outcome=None):
        return {"id": id, "layer": layer, "parent": parent, "start": start, "end": end,
                "self_s": end - start, "error": error, "outcome": outcome, "thread": 1}

    recorded = [
        span(2, "transform", 0.0, 0.1, parent=1),
        span(3, "verify", 0.1, 0.5, parent=1, outcome=True),
        span(4, "transform", 0.6, 0.7, parent=1, error="UnsupportedCombination"),
        span(1, "peso", 0.0, 1.0),
    ]
    metrics = spans.layer_metrics(recorded, [])
    assert metrics["peso.attempts"] == 2
    assert metrics["peso.attempt_ms.p50"] == pytest.approx(400.0)
    assert metrics["peso.attempt_ms.p95"] == pytest.approx(600.0)
    assert metrics["peso.useful_ratio"] == 0.5
    assert metrics["transform.unsupported"] == 1
    assert metrics["verify.pass_ratio"] == 1.0


def test_subprocess_argv_matches_toolchain_templates():
    class Chain:
        def __init__(self, run_argv, compile_argv=None):
            self.run_argv, self.compile_argv = run_argv, compile_argv

    chains = [Chain((sys.executable, "{file}")), Chain(("{exe}",), ("gcc", "{file}", "-o", "{exe}", "-lm"))]
    assert spans.classify_argv(["gcc", "/t/a.c", "-o", "/t/prog", "-lm"], chains) == "compile"
    assert spans.classify_argv([sys.executable, "/t/a.py"], chains) == "run"
    assert spans.classify_argv(["/t/prog"], chains) == "run"
    assert spans.classify_argv(["git", "rev-parse", "HEAD"], chains) == "other"


def test_missing_wrap_target_is_an_absent_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import codeperturb.cli
    from codeperturb.verify import default_toolchains

    monkeypatch.setattr(spans, "SPAN_TARGETS", spans.SPAN_TARGETS + (
        ("verify.gone", "codeperturb.verify", "no_such_function"),))
    original = codeperturb.cli.verify
    tracer = spans.Tracer()
    tracer.install(list(default_toolchains().values()))
    try:
        assert tracer.absent == ["codeperturb.verify.no_such_function"]
        assert codeperturb.cli.verify is not original
    finally:
        tracer.uninstall()
    assert codeperturb.cli.verify is original


# ---------------------------------------------------------------------------
# Decisions digest
# ---------------------------------------------------------------------------

def test_digest_ignores_timing_fields_only():
    record = {"iter": 0, "method_id": "insert_variables", "accepted": True,
              "score": {"s1": 0.9, "s2": 1.0, "ss": 0.95}, "verification": {"passed": True}}
    timed = {**record, "elapsed": 1.5, "stage_ms": {"verify": 3.0},
             "verification": {"passed": True, "compile_s": 0.2, "timings": {"run": 0.1}}}
    assert checks.decisions_digest([("a", [record])]) == checks.decisions_digest([("a", [timed])])
    changed = {**record, "score": {"s1": 0.9, "s2": 1.0, "ss": 0.96}}
    assert checks.decisions_digest([("a", [record])]) != checks.decisions_digest([("a", [changed])])
    assert checks.decisions_digest([("a", [record])]) != checks.decisions_digest([("b", [record])])


def test_digest_scrubs_the_scratch_prefix():
    def record(path):
        return {"verification": {"diagnostics": [f"{path}/codeperturb-x1/prog.c:3: error"]}}

    one = checks.decisions_digest([("a", [record("/w/tmp")])], scrub="/w/tmp")
    two = checks.decisions_digest([("a", [record("/v/tmp")])], scrub="/v/tmp")
    assert one == two
