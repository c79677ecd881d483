import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codeperturb.bench import (
    AccuracyReport,
    CompletionTask,
    MIN_LINES,
    FilterReason,
    Judge,
    PerturbedPair,
    Variant,
    build_tasks,
    evaluate_tasks,
    filter_corpus,
    filter_sample,
    render_report,
    report_run,
    win_counts,
)
from codeperturb.core import CodeSample, Language
from codeperturb.errors import RegionUnavailable


def sample(text, lang=Language.PYTHON, sid="s.py"):
    return CodeSample(id=sid, language=lang, text=text)


def make_py(lines, chars_pad=0):
    body = "\n".join(f"x{i} = {i}" for i in range(lines - 1))
    text = body + "\n"
    if chars_pad and len(text) < chars_pad:
        text = text[:-1] + "#" + "p" * (chars_pad - len(text)) + "\n"
    return text


# ---------------------------------------------------------------------------
# Filtering
# ---------------------------------------------------------------------------

def test_filter_39_lines_rejected():
    text = "\n".join(f"v{i} = {i}" for i in range(39)) + "\n"
    assert len(text.splitlines()) == 39 and len(text) >= 100
    v = filter_sample(sample(text))
    assert not v.kept and v.reasons == frozenset({FilterReason.TOO_FEW_LINES})


def test_filter_99_chars_rejected():
    text = ("x = 1\n" * 40)[:99].rsplit("\n", 1)[0] + "\n"
    text = "x = 1\n" * 45
    text = text[:98] + "\n"  # 99 chars, still >= 40 lines? no; build explicitly
    lines = ["a=%d" % i for i in range(40)]
    text = "\n".join(lines)
    text = text[:99]
    v = filter_sample(sample(text))
    assert FilterReason.TOO_FEW_CHARS in v.reasons


def test_filter_boundary_accepted():
    lines = [f"v{i} = {i}" for i in range(40)]
    text = "\n".join(lines)  # 40 lines, > 100 chars, valid
    assert len(text.splitlines()) == 40 and len(text) >= 100
    v = filter_sample(sample(text))
    assert v.kept and not v.reasons


@pytest.mark.parametrize("language, sid, text", [
    # 28 lines, 25 of them with a form feed, which str.splitlines() also splits at.
    (Language.C_CPP, "ff.c",
     "int f(int total) {\n" + "".join(f"    total += {i};\f\n" for i in range(25)) + "    return total;\n}\n"),
    # 28 lines, 25 of them with a file separator in a comment.
    (Language.PYTHON, "fs.py", "def f(total):\n" + "".join(f"    total += {i}  # \x1c\n" for i in range(25))
     + "    return total\n\n"),
])
def test_filter_counts_lines_where_the_language_ends_them(language, sid, text):
    assert len(text.splitlines()) > MIN_LINES and len(text) >= 100
    v = filter_sample(sample(text, language, sid))
    assert v.reasons == frozenset({FilterReason.TOO_FEW_LINES})


def test_filter_syntax_invalid():
    text = "def f(:\n" + make_py(45)
    v = filter_sample(sample(text))
    assert FilterReason.SYNTAX_INVALID in v.reasons


def test_filter_rust_missing_main_kept_with_diagnostic():
    body = "\n".join(f"// pad {i}" for i in range(38))
    text = f"fn helper() -> i32 {{\n    41\n}}\n{body}\n"
    v = filter_sample(sample(text, Language.RUST_LANG, "h.rs"))
    assert v.kept


def test_filter_corpus_order_independent():
    samples = [sample(make_py(50), sid=f"s{i}") for i in range(4)]
    samples.append(sample("tiny = 1\n", sid="tiny"))
    verdicts = filter_corpus(samples)
    flipped = filter_corpus(list(reversed(samples)))
    by_id = {v.sample_id: v for v in verdicts}
    for v in flipped:
        assert by_id[v.sample_id].kept == v.kept
        assert by_id[v.sample_id].reasons == v.reasons


# ---------------------------------------------------------------------------
# Task construction
# ---------------------------------------------------------------------------

ORIG = """def work(items):
    total = 0
    for x in items:
        total += x
        total = total * 1
        total = total + 0
    if total > 10:
        total -= 1
        total += 2
        total -= 3
    return total
"""

PERT = """def work_alt(items):
    acc = 0
    for x in items:
        acc += x
        acc = acc * 1
        acc = acc + 0
        acc = acc - 0
    if acc > 10:
        acc -= 1
        acc += 2
        acc -= 3
    return acc
"""


def make_pair():
    return PerturbedPair(
        original=sample(ORIG, sid="pair1.py"),
        perturbed=CodeSample(
            id="pair1.py", language=Language.PYTHON, text=PERT,
            lineage=("function_rename", "variables_rename", "insert_variables"),
        ),
        entry_points=("work",),
        function_map={"work": "work_alt"},
    )


def test_build_tasks_six_per_pair():
    tasks = build_tasks(make_pair(), seed=3)
    assert len(tasks) == 6
    for k in (1, 3, 5):
        sized = [t for t in tasks if t.mask_lines == k]
        assert {t.variant for t in sized} == {Variant.ORIGINAL, Variant.PERTURBED}
        a, b = sized
        assert a.region_anchor == b.region_anchor


def test_build_tasks_reconstruction():
    for seed in range(20):
        for task in build_tasks(make_pair(), seed=seed):
            source = ORIG if task.variant is Variant.ORIGINAL else PERT
            assert task.prefix + task.ground_truth + task.suffix == source


def test_build_tasks_masks_inside_function_and_nonblank():
    for seed in range(10):
        for task in build_tasks(make_pair(), seed=seed):
            for line in task.ground_truth.rstrip("\n").split("\n"):
                assert line.strip(), "masked line must be non-blank"
            assert "def " not in task.ground_truth


def test_build_tasks_too_small_function_skips_size():
    orig = "def t(a):\n    y = a + 1\n    return y\n"
    pert = "def t2(b):\n    z = b + 1\n    return z\n"
    pair = PerturbedPair(
        original=sample(orig, sid="small.py"),
        perturbed=CodeSample(
            id="small.py", language=Language.PYTHON, text=pert,
            lineage=("function_rename",),
        ),
        entry_points=("t",),
        function_map={"t": "t2"},
    )
    tasks = build_tasks(pair, seed=1)
    sizes = {t.mask_lines for t in tasks}
    assert 1 in sizes and 5 not in sizes


def test_build_tasks_region_unavailable():
    pair = PerturbedPair(
        original=sample("x = 1\n" * 3, sid="nofn.py"),
        perturbed=CodeSample(
            id="nofn.py", language=Language.PYTHON, text="y = 1\n" * 3,
            lineage=("variables_rename",),
        ),
        entry_points=(),
        function_map={},
    )
    with pytest.raises(RegionUnavailable):
        build_tasks(pair, seed=0)


def test_build_tasks_reads_python_lines_as_ast_ends_them():
    """A Python line ends at "\r\n", "\r" or "\n": the masks fall on the
    same lines whichever ends a text uses."""
    lines = [f"    v{i} = k + {i}\n" for i in range(11)]
    comment = "    # a comment ends at the line end\n"
    orig = "def f(k):\n" + "".join(lines[:6]) + comment + "".join(lines[6:]) + "    return v10\n"
    pert = orig.replace("def f(", "def g(")

    def tasks(end):
        pair = PerturbedPair(
            original=sample(orig.replace("\n", end), sid="ends.py"),
            perturbed=CodeSample(
                id="ends.py", language=Language.PYTHON, text=pert.replace("\n", end),
                lineage=("function_rename",),
            ),
            entry_points=("f",),
            function_map={"f": "g"},
        )
        return pair, build_tasks(pair, seed=3)

    _, expected = tasks("\n")
    for end in ("\r", "\r\n"):
        pair, got = tasks(end)
        assert len(got) == len(expected) == 6
        for task, want in zip(got, expected):
            source = pair.original if task.variant is Variant.ORIGINAL else pair.perturbed
            assert task.prefix + task.ground_truth + task.suffix == source.text
            assert task.ground_truth == want.ground_truth.replace("\n", end)


def _masked_regions(text, language, function):
    """{mask size: ground truths} over seeded tasks of a pair whose two
    variants are `text`, perturbed in `function`."""
    pair = PerturbedPair(
        original=sample(text, language, "m"),
        perturbed=CodeSample(id="m", language=language, text=text, lineage=("insert_variables",)),
        entry_points=(function,),
        function_map={},
    )
    regions = {}
    for seed in range(30):
        for task in build_tasks(pair, seed=seed):
            regions.setdefault(task.mask_lines, set()).add(task.ground_truth)
    return regions


C_MASKING = r"""int main(void) {
    int x = 0;
    int *p = &x;
    *p = 3;
    *p += 4;
    printf("%d\n", x);
    /* a block comment,
       its interior line,
     */
    return 0;
}
"""

PY_MASKING = "def f(k):\n    a = k + 1\n    doc = '''first\n    inner line\n    '''\n    return a\n"


def test_a_line_is_maskable_when_a_token_starts_on_it():
    lines = C_MASKING.splitlines(keepends=True)
    regions = _masked_regions(C_MASKING, Language.C_CPP, "main")
    assert regions[5] == {"".join(lines[1:6])}  # "*p = 3;" is a statement, not a comment
    statements = [lines[i] for i in (1, 2, 3, 4, 5, 9)]
    assert regions[1] <= set(statements) and "".join(lines[3:6]) in regions[3]
    lines = PY_MASKING.splitlines(keepends=True)
    regions = _masked_regions(PY_MASKING, Language.PYTHON, "f")
    assert set(regions) == {1}  # no token starts inside the string or on its closing line
    assert regions[1] <= {lines[1], lines[2], lines[5]}


def test_build_tasks_lexes_each_variant_once(monkeypatch):
    from codeperturb import lexing

    scanned, real_scan = [], lexing.scan
    monkeypatch.setattr(lexing, "scan", lambda text, *args: scanned.append(text) or real_scan(text, *args))
    for language, text, function in ((Language.C_CPP, C_MASKING, "main"), (Language.PYTHON, PY_MASKING, "f")):
        scanned.clear()
        pair = PerturbedPair(
            original=sample(text, language, "m"),
            perturbed=CodeSample(id="m", language=language, text=text + "\n", lineage=("insert_variables",)),
            entry_points=(function,),
            function_map={},
        )
        assert build_tasks(pair, seed=0)
        assert scanned == [text, text + "\n"]


@st.composite
def synthetic_pairs(draw):
    n_stmts = draw(st.integers(min_value=6, max_value=14))
    fname = draw(st.sampled_from(["alpha", "beta", "gamma"]))
    lines = [f"def {fname}(k):"]
    for i in range(n_stmts):
        lines.append(f"    v{i} = k + {i}")
    lines.append(f"    return v{n_stmts - 1}")
    orig = "\n".join(lines) + "\n"
    extra = draw(st.integers(min_value=0, max_value=3))
    plines = [f"def {fname}_p(k):"]
    for i in range(n_stmts + extra):
        plines.append(f"    w{i} = k + {i}")
    plines.append(f"    return w{n_stmts + extra - 1}")
    pert = "\n".join(plines) + "\n"
    pair = PerturbedPair(
        original=CodeSample(id=f"{fname}.py", language=Language.PYTHON, text=orig),
        perturbed=CodeSample(
            id=f"{fname}.py", language=Language.PYTHON, text=pert,
            lineage=("function_rename", "insert_variables"),
        ),
        entry_points=(fname,),
        function_map={fname: f"{fname}_p"},
    )
    return pair, draw(st.integers(min_value=0, max_value=2**31))


@given(synthetic_pairs())
@settings(max_examples=120, deadline=None)
def test_build_tasks_property_reconstruction_and_pairing(pair_seed):
    pair, seed = pair_seed
    tasks = build_tasks(pair, seed=seed)
    assert len(tasks) == 6
    by_size = {}
    for task in tasks:
        source = pair.original.text if task.variant is Variant.ORIGINAL else pair.perturbed.text
        assert task.prefix + task.ground_truth + task.suffix == source
        by_size.setdefault(task.mask_lines, []).append(task)
    for k, pair_tasks in by_size.items():
        assert len(pair_tasks) == 2
        assert pair_tasks[0].region_anchor == pair_tasks[1].region_anchor
        for t in pair_tasks:
            assert len(t.ground_truth.rstrip("\n").split("\n")) == k


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def make_tasks():
    return build_tasks(make_pair(), seed=5)


def test_evaluate_all_correct():
    tasks = make_tasks()
    completions = {t.task_id: t.ground_truth for t in tasks}
    report = evaluate_tasks(tasks, completions, Judge.EXACT_MATCH)
    for stats in report.buckets.values():
        assert stats["accuracy"] == 1.0
    assert all(d == 0.0 for d in report.deltas.values())


def test_evaluate_delta():
    tasks = make_tasks()
    completions = {}
    for t in tasks:
        if t.variant is Variant.ORIGINAL:
            completions[t.task_id] = t.ground_truth
        else:
            completions[t.task_id] = "wrong()\n"
    report = evaluate_tasks(tasks, completions, Judge.EXACT_MATCH)
    assert all(d == 1.0 for d in report.deltas.values())


def test_evaluate_normalized_ignores_whitespace():
    tasks = make_tasks()
    completions = {
        t.task_id: "\n".join("   " + ln.strip() + "  " for ln in t.ground_truth.splitlines()) + "\n"
        for t in tasks
    }
    exact = evaluate_tasks(tasks, completions, Judge.EXACT_MATCH)
    norm = evaluate_tasks(tasks, completions, Judge.NORMALIZED_MATCH)
    assert any(s["accuracy"] < 1.0 for s in exact.buckets.values())
    assert all(s["accuracy"] == 1.0 for s in norm.buckets.values())


def test_evaluate_missing_counted_wrong():
    tasks = make_tasks()
    completions = {t.task_id: t.ground_truth for t in tasks[:-2]}
    report = evaluate_tasks(tasks, completions, Judge.EXACT_MATCH)
    assert len(report.missing) == 2
    assert any(s["accuracy"] < 1.0 for s in report.buckets.values())


def test_evaluate_external_judge():
    tasks = make_tasks()
    completions = {t.task_id: "anything" for t in tasks}
    report = evaluate_tasks(
        tasks, completions, Judge.EXTERNAL, external_judge=lambda t, c: True
    )
    assert all(s["accuracy"] == 1.0 for s in report.buckets.values())


def test_evaluate_order_invariant():
    tasks = make_tasks()
    completions = {t.task_id: t.ground_truth for t in tasks[:3]}
    a = evaluate_tasks(tasks, completions, Judge.EXACT_MATCH)
    b = evaluate_tasks(list(reversed(tasks)), completions, Judge.EXACT_MATCH)
    assert a.to_dict() == b.to_dict()


def test_task_and_accuracy_dicts_round_trip():
    tasks = make_tasks()
    completions = {t.task_id: t.ground_truth for t in tasks[:4]}
    report = evaluate_tasks(tasks, completions, Judge.EXACT_MATCH)
    assert report.deltas and report.missing
    for x in tasks + [report]:
        assert type(x).from_dict(x.to_dict()) == x
        assert type(x).from_dict(json.loads(json.dumps(x.to_dict()))) == x


def test_from_dict_reads_the_lenient_forms():
    record = make_tasks()[0].to_dict()
    del record["region_anchor"]
    record["mask_lines"] = str(record["mask_lines"])
    task = CompletionTask.from_dict(record)
    assert task.region_anchor == {} and isinstance(task.mask_lines, int)
    assert AccuracyReport.from_dict({}) == AccuracyReport(buckets={}, deltas={}, missing=())


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def fake_summary(sid, s1, s2, ss):
    return {"sample_id": sid, "final_s1": s1, "final_s2": s2, "final_ss": ss}


def test_win_counts_hand_checked():
    a = {f"s{i}": {"s1": v, "s2": v, "ss": v} for i, v in enumerate([0.5, 0.7, 0.3, 0.4])}
    b = {f"s{i}": {"s1": v, "s2": v, "ss": v} for i, v in enumerate([0.6, 0.7, 0.2, 0.5])}
    wins = win_counts(a, b)
    assert wins["ss"] == {"a_higher": 1, "b_higher": 2, "ties": 1}


def test_report_run_mean():
    doc = report_run([fake_summary("a", 0.5, 0.7, 0.6), fake_summary("b", 0.3, 0.5, 0.4)])
    assert doc["means"]["ss"] == pytest.approx(0.5)
    assert len(doc["samples"]) == 2


def test_report_run_empty_valid():
    doc = report_run([])
    assert doc["samples"] == [] and doc["means"] == {}
    assert isinstance(render_report(doc), str)


def test_render_report_includes_sections():
    doc = report_run(
        [fake_summary("a", 0.5, 0.7, 0.6)],
        baseline_summaries=[fake_summary("a", 0.6, 0.8, 0.7)],
    )
    text = render_report(doc)
    assert "baseline" in text and "mean" in text
