import hashlib
import json
import multiprocessing
import os
import pickle
import shutil
import subprocess
import tempfile
import time
import warnings
from collections import Counter
from pathlib import Path

import pytest

from codeperturb import cli, errors
from codeperturb import verify as verify_module
from codeperturb.cli import main
from codeperturb.analysis import find_functions
from codeperturb.corpusio import read_corpus, read_jsonl, safe_name, write_jsonl
from codeperturb.errors import EngineFailure
from codeperturb.transform import RULES
from codeperturb.verify import ForkServer, Toolchain, VerificationReport, default_toolchains

from .conftest import load_fixture_corpus, write_corpus_jsonl
from .test_verify import DEEP_SOURCES
from codeperturb.core import CodeSample, Language, MethodCategory, build_catalog
from codeperturb.peso import NO_CANDIDATE, IterationRecord
from codeperturb.similarity import SimilarityScore


@pytest.fixture
def small_corpus(tmp_path):
    corpus = load_fixture_corpus(languages={Language.PYTHON})[:3]
    path = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(path, corpus)
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_similarity_prints_four_decimals(tmp_path, capsys):
    a = tmp_path / "a.py"
    b = tmp_path / "b.py"
    a.write_text("def f(x):\n    return x + 1\n")
    b.write_text("def g(y):\n    return y + 1\n")
    assert run_cli("similarity", a, b, "--language", "python") == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("s1=0.") and " s2=1.0000 " in f" {out.split()[1]} "
    for field in out.split():
        name, value = field.split("=")
        assert len(value.split(".")[1]) == 4


# json.dumps(..., ensure_ascii=False) leaves these unescaped; str.splitlines()
# would end a line at each.
LINE_SEPARATORS = ["\u2028", "\u2029", "\u0085"]


@pytest.mark.parametrize("separator", LINE_SEPARATORS)
def test_records_round_trip_content_with_unicode_line_separators(separator, tmp_path):
    text = f"s = '{separator}'\nprint(len(s))\n"
    record = {"id": "u.py", "language": "python", "content": text, "input_suite": [separator]}
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
    assert separator in path.read_text(encoding="utf-8")
    [(sample, suite)] = read_corpus(path)
    assert (sample.text, suite) == (text, (separator,))
    assert read_jsonl(path) == [record]


def test_filter_command(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    lines = "\n".join(f"v{i} = {i}" for i in range(45)) + "\n"
    write_corpus_jsonl(
        corpus,
        [
            (make_sample("big.py", lines), ()),
            (make_sample("small.py", "x = 1\n"), ()),
        ],
    )
    out = tmp_path / "out"
    assert run_cli("filter", "--corpus", corpus, "--output-dir", out) == 0
    verdicts = {r["sample_id"]: r for r in read_jsonl(out / "verdicts.jsonl")}
    assert verdicts["big.py"]["kept"] is True
    assert verdicts["small.py"]["kept"] is False
    assert "TOO_FEW_LINES" in verdicts["small.py"]["reasons"]


def make_sample(sid, text):
    from codeperturb.core import CodeSample

    return CodeSample(id=sid, language=Language.PYTHON, text=text)


def test_perturb_command(small_corpus, tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli(
        "perturb", "--method", "modify_operations", "--corpus", small_corpus,
        "--engine", "rule", "--seed", "1", "--output-dir", out,
    )
    assert code == 0
    outcomes = read_jsonl(out / "outcomes.jsonl")
    assert outcomes
    applied = [r for r in outcomes if r["applied"]]
    assert applied and all(r["verified"] for r in applied)
    skipped = [r for r in outcomes if not r["applied"]]
    assert all("reason" in r for r in skipped)
    assert (out / "manifest.json").exists()


def test_perturb_records_a_pair_without_a_rule_as_not_applied(tmp_path, capsys):
    path = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(path, load_fixture_corpus())
    out = tmp_path / "out"
    code = run_cli(
        "perturb", "--method", "add_exception", "--corpus", path, "--engine", "rule",
        "--seed", "3", "--equivalence", "stub", "--output-dir", out,
    )
    assert code == 0
    outcomes = read_jsonl(out / "outcomes.jsonl")
    c_records = [r for r in outcomes if r["sample_id"].endswith(".c")]
    assert len(c_records) == 8
    for r in c_records:
        assert r["applied"] is False and "error" not in r
        assert r["reason"] == "unsupported" and "cannot apply add_exception to c_cpp" in r["detail"]
    assert not any("error" in r for r in outcomes)


def test_perturb_under_stub_builds_and_runs_nothing(tmp_path, monkeypatch, capsys):
    if Language.C_CPP not in default_toolchains():
        pytest.skip("no C toolchain")
    path = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(path, load_fixture_corpus())
    started = []
    real_run, real_init = subprocess.run, ForkServer.__init__
    monkeypatch.setattr(subprocess, "run", lambda *args, **kwargs: started.append(args) or real_run(*args, **kwargs))
    monkeypatch.setattr(ForkServer, "__init__",
                        lambda self, *args: started.append(args) or real_init(self, *args))
    out = tmp_path / "out"
    code = run_cli(
        "perturb", "--method", "insert_junk_loop", "--corpus", path, "--engine", "rule",
        "--seed", "1", "--equivalence", "stub", "--jobs", "1", "--output-dir", out,
    )
    assert code == 0 and started == []
    c_records = [r for r in read_jsonl(out / "outcomes.jsonl") if r["sample_id"].endswith(".c")]
    assert len(c_records) == 8 and all(r["applied"] for r in c_records)
    assert [r["verification"]["compile_ok"] for r in c_records] == [None] * 8


def test_an_unparsable_rule_output_is_a_candidate_verification_rejects(tmp_path, monkeypatch, capsys):
    """No engine checks its own output: the syntax stage judges a rule's
    rewrite as it judges an LLM answer, and keeps the parser's diagnostic."""
    corpus = [load_fixture_corpus({Language.PYTHON})[0], load_fixture_corpus({Language.C_CPP})[0]]
    for language, tail in ((Language.PYTHON, "def (:\n"), (Language.C_CPP, "}\n")):
        monkeypatch.setitem(RULES[language], "function_rename", lambda text, rng, tail=tail: (text + tail, "<file>"))
    path = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(path, corpus)
    out = tmp_path / "out"
    code = run_cli(
        "perturb", "--method", "function_rename", "--corpus", path, "--engine", "rule",
        "--seed", "1", "--equivalence", "stub", "--jobs", "1", "--output-dir", out,
    )
    assert code == 0
    python, c = read_jsonl(out / "outcomes.jsonl")
    for record in (python, c):
        assert record["applied"] is True and record["verified"] is False and "error" not in record
        assert record["verification"]["syntax_ok"] is False
    lines = len(corpus[0][0].text.split("\n"))
    assert python["verification"]["diagnostics"] == [f"syntax error at line {lines}, offset 5: invalid syntax"]
    assert c["verification"]["diagnostics"] == [f"unbalanced '}}' at offset {len(corpus[1][0].text)}"]


def test_perturb_unknown_method(small_corpus, tmp_path, capsys):
    code = run_cli(
        "perturb", "--method", "no_such_method", "--corpus", small_corpus,
        "--output-dir", tmp_path / "o",
    )
    assert code == 1
    assert "no_such_method" in capsys.readouterr().err


def test_perturb_output_does_not_depend_on_jobs(tmp_path, capsys):
    path = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(path, load_fixture_corpus())
    for method in ("insert_junk_loop", "equi_arithmetic_expression"):
        outcomes = []
        for jobs in ("1", "2"):
            out = tmp_path / f"{method}-{jobs}"
            code = run_cli(
                "perturb", "--method", method, "--corpus", path, "--engine", "rule",
                "--seed", "1", "--equivalence", "exec", "--jobs", jobs, "--output-dir", out,
            )
            assert code == 0
            outcomes.append((out / "outcomes.jsonl").read_bytes())
        assert outcomes[0] == outcomes[1]
        assert any(r.get("verified") for r in read_jsonl(tmp_path / f"{method}-1" / "outcomes.jsonl"))


def test_perturb_runs_samples_concurrently(tmp_path, monkeypatch, capsys):
    # Samples start in pairs, each waiting for the other, so the command
    # finishes only when two samples are in flight at once. The forked
    # workers share the barrier and write down each sample as it starts.
    barrier = multiprocessing.get_context("fork").Barrier(2, timeout=10)
    started = tmp_path / "started"
    real_perturb = cli.perturb

    def waiting_perturb(engine, sample, *rest):
        with started.open("a") as fh:
            fh.write(sample.id + "\n")
        barrier.wait()
        return real_perturb(engine, sample, *rest)

    monkeypatch.setattr(cli, "perturb", waiting_perturb)
    corpus = sorted(load_fixture_corpus(languages={Language.PYTHON})[:4], key=lambda item: len(item[0].text))
    path = tmp_path / "four.jsonl"
    write_corpus_jsonl(path, corpus)
    code = run_cli(
        "perturb", "--method", "modify_operations", "--corpus", path, "--engine", "rule",
        "--seed", "1", "--jobs", "2", "--output-dir", tmp_path / "out",
    )
    assert code == 0
    assert [r["sample_id"] for r in read_jsonl(tmp_path / "out" / "outcomes.jsonl")] == [s.id for s, _ in corpus]
    # The two largest texts, last in the corpus, are handed out first.
    assert set(started.read_text().split()[:2]) == {s.id for s, _ in corpus[2:]}


def test_jobs_default_to_the_cpus_this_process_may_run_on(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    args = cli.build_parser().parse_args(["perturb", "--corpus", "c.jsonl", "--method", "m"])
    assert args.jobs == 1


def test_perturb_exec_without_an_input_suite_is_a_config_error(tmp_path, monkeypatch, capsys):
    # The bare sample comes last, yet no sample is perturbed: the check
    # runs over the whole corpus before any work starts. A worker process
    # would leave the marker file behind.
    perturbed = tmp_path / "perturbed"
    real_perturb = cli.perturb
    monkeypatch.setattr(cli, "perturb", lambda *a: perturbed.touch() or real_perturb(*a))
    path = tmp_path / "corpus.jsonl"
    corpus = load_fixture_corpus(languages={Language.PYTHON})[:2]
    write_corpus_jsonl(path, corpus + [(make_sample("bare.py", "def f(x):\n    return x + 1\n"), ())])
    out = tmp_path / "out"
    code = run_cli(
        "perturb", "--method", "modify_operations", "--corpus", path, "--engine", "rule",
        "--equivalence", "exec", "--jobs", "2", "--output-dir", out,
    )
    assert code == 1
    assert "--equivalence exec needs an input_suite" in capsys.readouterr().err
    assert not (out / "outcomes.jsonl").exists()
    assert not perturbed.exists()


def test_llm_engine_without_endpoint_is_config_error(small_corpus, tmp_path, capsys):
    code = run_cli(
        "peso-run", "--corpus", small_corpus, "--engine", "llm",
        "--output-dir", tmp_path / "o",
    )
    assert code == 1
    assert "llm" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("field,value,problem", [
    ("language", 5, "language and content must be strings"),
    ("language", "cobol", "unknown language: 'cobol'"),
    ("content", ["print(1)\n"], "language and content must be strings"),
    ("input_suite", "ab", "input_suite must be a list of strings"),
    ("input_suite", [1, 2], "input_suite must be a list of strings"),
], ids=["language", "unknown-language", "content", "suite-string", "suite-ints"])
def test_a_malformed_corpus_record_is_a_config_error(field, value, problem, tmp_path, capsys):
    good = {"id": "a.py", "language": "python", "content": "print(input())\n", "input_suite": ["1\n"]}
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps({**good, "id": "b.py", field: value}) + "\n")
    out = tmp_path / "out"
    assert run_cli("peso-run", "--corpus", path, "--max-iter", "2", "--output-dir", out) == 1
    assert capsys.readouterr().err == f"error: {path}:2: {problem}\n"
    assert not out.exists()


@pytest.mark.parametrize("first,second,problem", [
    ("a/b.py", "a_b.py", "sample id 'a_b.py' shares the file name 'a_b.py' with sample id 'a/b.py' on line 1"),
    ("x.py", "x.py", "sample id 'x.py' repeats sample id 'x.py' on line 1"),
], ids=["same-file-name", "same-id"])
def test_sample_ids_that_share_a_trace_file_are_a_config_error(first, second, problem, tmp_path, capsys):
    """Each sample's trace and reply directory are named by its id's
    safe_name, so two records with one name would share them."""
    record = {"language": "python", "content": "print(input())\n", "input_suite": ["1\n"]}
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps({**record, "id": first}) + "\n" + json.dumps({**record, "id": second}) + "\n")
    out = tmp_path / "out"
    assert run_cli("peso-run", "--corpus", path, "--equivalence", "stub", "--output-dir", out) == 1
    assert capsys.readouterr().err == f"error: {path}:2: {problem}\n"
    assert not out.exists()


@pytest.mark.parametrize("config,key", [
    ({"mu": "0.5", "nu": 0.5}, "mu"),
    ({"max_iter": True}, "max_iter"),
    ({"max_iter": 2.5}, "max_iter"),
    ({"engine": "llm", "llm": "x"}, "llm"),
    ({"engine": "llm", "llm": {"base_url": 7}}, "llm.base_url"),
    ({"engine": "llm", "llm": {"base_url": "http://localhost:1", "timeout": "60"}}, "llm.timeout"),
], ids=["mu-string", "max_iter-bool", "max_iter-float", "llm-string", "llm-base_url", "llm-timeout"])
def test_a_config_value_of_the_wrong_type_is_a_config_error(config, key, small_corpus, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run_cli("peso-run", "--corpus", small_corpus, "--config", path, "--output-dir", out) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {path}: {key} must be ")
    assert not out.exists()


def test_bad_weights_rejected(small_corpus, tmp_path, capsys):
    code = run_cli(
        "peso-run", "--corpus", small_corpus, "--mu", "0.7", "--nu", "0.2",
        "--output-dir", tmp_path / "o",
    )
    assert code == 1


def test_peso_run_outputs(small_corpus, tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli(
        "peso-run", "--corpus", small_corpus, "--engine", "rule", "--seed", "5",
        "--max-iter", "4", "--equivalence", "stub", "--jobs", "2", "--output-dir", out,
    )
    assert code == 0
    assert (out / "manifest.json").exists()
    summaries = read_jsonl(out / "summary.jsonl")
    assert len(summaries) == 3
    for summary in summaries:
        assert 0.0 <= summary["final_ss"] <= 1.0
        trace = read_jsonl(out / "traces" / f"{summary['sample_id']}.jsonl")
        assert trace[0]["method_id"] == "function_rename"
        assert trace[1]["method_id"] == "variables_rename"
    pairs = read_jsonl(out / "pairs.jsonl")
    assert all(p["perturbed"] != p["original"] for p in pairs)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["max_iter"] == 4


def test_random_run_outputs(small_corpus, tmp_path, capsys):
    out = tmp_path / "rand"
    code = run_cli(
        "random-run", "--corpus", small_corpus, "--engine", "rule", "--seed", "5",
        "--max-iter", "4", "--equivalence", "stub", "--output-dir", out,
    )
    assert code == 0
    for summary in read_jsonl(out / "summary.jsonl"):
        trace = read_jsonl(out / "traces" / f"{summary['sample_id']}.jsonl")
        assert all(r["phase"] != "init" for r in trace)


def test_make_tasks_skips_a_pair_the_lexer_rejects(tmp_path, capsys):
    [(good, _)] = load_fixture_corpus({Language.PYTHON})[:1]
    bad = 'int main(void) {\n    puts("open);\n    return 0;\n}\n'
    pairs = tmp_path / "pairs.jsonl"
    write_jsonl(pairs, [
        {"id": "bad.c", "language": "c", "original": bad, "perturbed": bad, "entry_points": ["main"]},
        {"id": good.id, "language": "python", "original": good.text, "perturbed": good.text,
         "entry_points": [f.name for f in find_functions(good.text, Language.PYTHON)]},
    ])
    out = tmp_path / "tasks"
    assert run_cli("make-tasks", "--pairs", pairs, "--output-dir", out) == 2
    assert {t["sample_id"] for t in read_jsonl(out / "tasks.jsonl")} == {good.id}
    assert read_jsonl(out / "tasks_skipped.jsonl") == [
        {"sample_id": "bad.c", "error": "cannot analyze pair bad.c: unterminated '\"' literal (offset 26)"}
    ]


def test_make_tasks_and_evaluate_flow(small_corpus, tmp_path, capsys):
    out = tmp_path / "flow"
    assert run_cli(
        "peso-run", "--corpus", small_corpus, "--engine", "rule", "--seed", "5",
        "--max-iter", "4", "--equivalence", "stub", "--output-dir", out,
    ) == 0
    code = run_cli("make-tasks", "--pairs", out / "pairs.jsonl", "--seed", "3", "--output-dir", out)
    assert code in (0, 2)
    tasks = read_jsonl(out / "tasks.jsonl")
    assert tasks
    sample_ids = {t["sample_id"] for t in tasks}
    for sid in sample_ids:
        sized = [t for t in tasks if t["sample_id"] == sid]
        assert len(sized) % 2 == 0
    completions = tmp_path / "completions.jsonl"
    with completions.open("w") as fh:
        for t in tasks:
            fh.write(json.dumps({"task_id": t["task_id"], "completion": t["ground_truth"]}) + "\n")
    assert run_cli(
        "evaluate", "--tasks", out / "tasks.jsonl", "--completions", completions,
        "--judge", "exact", "--output-dir", out,
    ) == 0
    accuracy = json.loads((out / "accuracy.json").read_text())
    assert all(b["accuracy"] == 1.0 for b in accuracy["buckets"].values())
    assert run_cli(
        "report", "--summary", out / "summary.jsonl", "--accuracy", out / "accuracy.json",
        "--output-dir", out,
    ) == 0
    text = (out / "report.txt").read_text()
    assert "mean" in text and "accuracy" in text


def test_usage_error_exits_one(capsys):
    assert run_cli("peso-run") == 1


def _collatz_corpus(tmp_path):
    corpus = [
        item for item in load_fixture_corpus() if item[0].id in ("collatz.c", "collatz.py")
    ]
    assert {s.language for s, _ in corpus} == {Language.C_CPP, Language.PYTHON}
    path = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(path, corpus)
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    return path, scratch


def test_peso_run_removes_its_scratch_directories(tmp_path, monkeypatch, capsys):
    path, scratch = _collatz_corpus(tmp_path)
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    servers = []
    real_init = ForkServer.__init__
    monkeypatch.setattr(ForkServer, "__init__", lambda self, *a: servers.append(self) or real_init(self, *a))
    # A directory left to the garbage collector is removed with a
    # ResourceWarning, so the warnings show whether each runner was closed.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(
            "peso-run", "--corpus", path, "--engine", "rule", "--seed", "2", "--max-iter", "2",
            "--equivalence", "exec", "--jobs", "1", "--output-dir", tmp_path / "out",
        )
    assert code == 0
    summaries = read_jsonl(tmp_path / "out" / "summary.jsonl")
    assert len(summaries) == 2
    assert not list(scratch.glob("codeperturb-*"))
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    # Every fork server the command started has exited and been reaped.
    assert servers and all(s.proc.returncode is not None for s in servers)


def test_worker_processes_remove_their_scratch_directories_and_servers(tmp_path, monkeypatch, capsys):
    path, scratch = _collatz_corpus(tmp_path)
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    # The workers inherit this wrapper and write down, for every fork server
    # they start, its pid and their own.
    pids = tmp_path / "pids"
    real_init = ForkServer.__init__

    def recording_init(self, *args):
        real_init(self, *args)
        with pids.open("a") as fh:
            fh.write(f"{self.proc.pid} {os.getpid()}\n")

    monkeypatch.setattr(ForkServer, "__init__", recording_init)
    code = run_cli(
        "peso-run", "--corpus", path, "--engine", "rule", "--seed", "2", "--max-iter", "2",
        "--equivalence", "exec", "--jobs", "2", "--output-dir", tmp_path / "out",
    )
    assert code == 0
    assert len(read_jsonl(tmp_path / "out" / "summary.jsonl")) == 2
    assert not list(scratch.glob("codeperturb-*"))
    rows = [tuple(map(int, line.split())) for line in pids.read_text().splitlines()]
    workers = {worker for _, worker in rows}
    assert len(workers) == 2 and os.getpid() not in workers
    # Every server and every worker has exited and been reaped.
    for pid in {pid for row in rows for pid in row}:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_failed_sample_keeps_its_partial_trace(tmp_path, capsys):
    corpus = [item for item in load_fixture_corpus() if item[0].id == "collatz.py"]
    path = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(path, corpus)
    replies = tmp_path / "replies"
    replies.mkdir()
    out = tmp_path / "out"
    code = run_cli(
        "peso-run", "--corpus", path, "--engine", "hybrid", "--replay-dir", replies,
        "--seed", "2", "--output-dir", out,
    )
    assert code == 2
    [failure] = read_jsonl(out / "failures.jsonl")
    assert failure["sample_id"] == "collatz.py"
    assert "no canned reply" in failure["error"]
    trace = failure["partial_trace"]
    assert [r["phase"] for r in trace[:2]] == ["rename", "rename"]
    assert [r["method_id"] for r in trace[:2]] == ["function_rename", "variables_rename"]


def test_replayed_llm_runs_write_the_same_files_on_worker_processes(tmp_path, capsys):
    corpus = load_fixture_corpus(languages={Language.PYTHON})[:3]
    path = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(path, corpus)
    replies = tmp_path / "replies"
    for sample, _ in corpus:  # the k-th reply of a sample for a method adds the k-th comment line
        directory = replies / safe_name(sample.id)
        directory.mkdir(parents=True)
        for m in build_catalog().methods:
            for k in range(6):
                code = f"{sample.text}# {m.id} {k}\n"
                reply = {"content": json.dumps({"code": code, "entry_point": "main"})}
                (directory / f"{m.id}-{k}.json").write_text(json.dumps(reply))
    written = []
    for jobs in ("1", "2"):
        out = tmp_path / f"out-{jobs}"
        code = run_cli(
            "peso-run", "--corpus", path, "--engine", "llm", "--replay-dir", replies, "--seed", "3",
            "--max-iter", "3", "--jobs", jobs, "--equivalence", "stub", "--output-dir", out,
        )
        assert code == 0
        files = sorted((out / "traces").glob("*.jsonl")) + [out / "summary.jsonl", out / "pairs.jsonl"]
        written.append({f.name: f.read_bytes() for f in files})
    assert len(written[0]) == 5
    assert written[0] == written[1]


ERROR_ARGS = {errors.LexError: ("unterminated string", 7), errors.MalformedAnswer: ("no code field", "raw reply")}


@pytest.mark.parametrize("cls", [
    c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.CodePerturbError)
])
def test_every_error_survives_pickling_with_its_attributes(cls):
    # A worker process hands its sample's error back pickled.
    exc = cls(*ERROR_ARGS.get(cls, ("it failed",)))
    exc.partial_trace = (IterationRecord(
        iter=0, phase="rename", method_id="function_rename", category=MethodCategory.BASIC,
        score=SimilarityScore(s1=0.5, s2=0.25, ss=0.375), og=0.5, probabilities=(1.0,), reason="accepted",
        verification=VerificationReport(True, None, True, ()),
    ),)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc) and back.args == exc.args
    assert back.__dict__ == exc.__dict__


def test_an_unlexable_sample_fails_only_itself_on_worker_processes(tmp_path, capsys):
    good = load_fixture_corpus(languages={Language.PYTHON})[0]
    bad = (CodeSample(id="open.c", language=Language.C_CPP, text='char *s = "never closed;\n'), ())
    path = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(path, [bad, good])
    out = tmp_path / "out"
    code = run_cli(
        "peso-run", "--corpus", path, "--engine", "rule", "--seed", "1", "--max-iter", "2",
        "--jobs", "2", "--equivalence", "stub", "--output-dir", out,
    )
    assert code == 2
    [failure] = read_jsonl(out / "failures.jsonl")
    assert failure["sample_id"] == "open.c" and "offset" in failure["error"]
    assert [s["sample_id"] for s in read_jsonl(out / "summary.jsonl")] == [good[0].id]


def test_an_original_that_does_not_parse_fails_its_sample(tmp_path, capsys):
    """A rule cannot parse only a text that does not parse, and in a run
    that is only the original: no attempt can succeed, so the sample fails
    in place of a summary row with ss 1."""
    good = load_fixture_corpus(languages={Language.PYTHON})[0]
    bad = (CodeSample(id="bad.py", language=Language.PYTHON, text="def f(:\n    return 1\n"), ())
    path = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(path, [bad, good])
    out = tmp_path / "out"
    code = run_cli(
        "peso-run", "--corpus", path, "--engine", "rule", "--seed", "1", "--max-iter", "2",
        "--jobs", "1", "--output-dir", out,
    )
    assert code == 2
    [failure] = read_jsonl(out / "failures.jsonl")
    assert failure["sample_id"] == "bad.py" and failure["error"].startswith("cannot parse python source")
    assert failure["partial_trace"] == []
    assert [s["sample_id"] for s in read_jsonl(out / "summary.jsonl")] == [good[0].id]


GOOD_TASK = {"task_id": "t1", "sample_id": "a.py", "variant": "original", "mask_lines": 1,
             "prefix": "", "ground_truth": "x = 1", "suffix": ""}
GOOD_SUMMARY = {"sample_id": "a.py", "final_s1": 0.5, "final_s2": 0.75, "final_ss": 0.625}
GOOD_PAIR = {"id": "a.py", "language": "python", "original": "x = 1\n", "perturbed": "x = 1\n"}


@pytest.mark.parametrize("flag,good,bad,problem", [
    ("--completions", {"task_id": "t1", "completion": "x = 1"}, ["t1", "x"], "not a JSON object"),
    ("--completions", {"task_id": "t1", "completion": "x = 1"}, {"task_id": "t2", "completion": 3},
     "completion must be a string or null"),
    ("--tasks", GOOD_TASK, {"task_id": "t2"}, "missing 'sample_id'"),
    ("--tasks", GOOD_TASK, {**GOOD_TASK, "ground_truth": 3},
     "task_id, sample_id, prefix, ground_truth and suffix must be strings"),
    ("--external-verdicts", {"task_id": "t1", "correct": True}, {"task_id": "t2"}, "missing 'correct'"),
    ("--pairs", GOOD_PAIR, {"id": "b.py"}, "missing 'language'"),
    ("--pairs", GOOD_PAIR, {**GOOD_PAIR, "language": 5}, "id, language, original and perturbed must be strings"),
    ("--summary", GOOD_SUMMARY, {"sample_id": "x"}, "missing 'final_s1'"),
    ("--baseline", GOOD_SUMMARY, {**GOOD_SUMMARY, "final_ss": "1"},
     "sample_id must be a string, and final_s1, final_s2 and final_ss numbers"),
], ids=["completions-list", "completions-number", "tasks", "tasks-ground-truth", "external-verdicts", "pairs", "pairs-language",
        "summary", "baseline"])
def test_a_malformed_record_is_a_config_error_that_names_its_line(flag, good, bad, problem, tmp_path, capsys):
    files = {"--tasks": [GOOD_TASK], "--completions": [], "--external-verdicts": [],
             "--pairs": [], "--summary": [GOOD_SUMMARY], "--baseline": []}
    files[flag] = [good, bad]
    paths = {}
    for name, records in files.items():
        paths[name] = tmp_path / f"{name[2:]}.jsonl"
        paths[name].write_text("".join(json.dumps(r) + "\n" for r in records))
    out = tmp_path / "out"
    command = {
        "--pairs": ["make-tasks", "--pairs", paths["--pairs"]],
        "--summary": ["report", "--summary", paths["--summary"]],
        "--baseline": ["report", "--summary", paths["--summary"], "--baseline", paths["--baseline"]],
    }.get(flag, ["evaluate", "--tasks", paths["--tasks"], "--completions", paths["--completions"],
                 "--judge", "external", "--external-verdicts", paths["--external-verdicts"]])
    assert run_cli(*command, "--output-dir", out) == 1
    assert capsys.readouterr().err == f"error: {paths[flag]}:2: malformed record: {problem}\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("sid", sorted(DEEP_SOURCES))
def test_a_deeply_nested_sample_fails_no_run(sid, jobs, tmp_path, capsys):
    """A text too deep for compile() of its tree is perturbed; one too deep
    for the parser fails its own sample, as any text that does not parse
    does. Neither stops the run."""
    small = load_fixture_corpus(languages={Language.PYTHON})[0][0]
    deep = CodeSample(id=sid, language=Language.PYTHON, text=DEEP_SOURCES[sid])
    try:
        find_functions(deep.text, Language.PYTHON)
        parses = True
    except errors.ParseError:
        parses = False
    path = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(path, [(deep, ()), (small, ())])
    out = tmp_path / "out"
    code = run_cli(
        "peso-run", "--corpus", path, "--engine", "rule", "--seed", "1", "--max-iter", "2",
        "--jobs", jobs, "--output-dir", out,
    )
    assert code == (0 if parses else 2)
    assert [s["sample_id"] for s in read_jsonl(out / "summary.jsonl")] == [sid] * parses + [small.id]
    if not parses:
        [failure] = read_jsonl(out / "failures.jsonl")
        assert failure["sample_id"] == sid and failure["error"].startswith("cannot parse python source")


def test_filter_calls_a_text_too_deep_to_parse_syntax_invalid(tmp_path, capsys):
    path = tmp_path / "corpus.jsonl"
    sid = "sum_100000.py"
    write_corpus_jsonl(path, [(CodeSample(id=sid, language=Language.PYTHON, text=DEEP_SOURCES[sid]), ())])
    assert run_cli("filter", "--corpus", path, "--output-dir", tmp_path / "out") == 0
    [verdict] = read_jsonl(tmp_path / "out" / "verdicts.jsonl")
    assert "SYNTAX_INVALID" in verdict["reasons"] and verdict["diagnostics"]


def test_failures_are_listed_in_corpus_order(tmp_path, monkeypatch, capsys):
    corpus = load_fixture_corpus(languages={Language.PYTHON})[:3]
    slow, fast = corpus[0][0].id, corpus[1][0].id
    real_run = cli.run

    def optimizer(sample, engine, catalog, cfg, verifier):
        if sample.id == slow:
            time.sleep(0.2)
        if sample.id in (slow, fast):
            raise EngineFailure(f"{sample.id} failed")
        return real_run(sample, engine, catalog, cfg, verifier)

    monkeypatch.setattr(cli, "run", optimizer)
    path = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(path, corpus)
    out = tmp_path / "out"
    code = run_cli(
        "peso-run", "--corpus", path, "--engine", "rule", "--seed", "1", "--max-iter", "1",
        "--jobs", "2", "--equivalence", "stub", "--output-dir", out,
    )
    assert code == 2
    assert [f["sample_id"] for f in read_jsonl(out / "failures.jsonl")] == [slow, fast]
    assert [s["sample_id"] for s in read_jsonl(out / "summary.jsonl")] == [corpus[2][0].id]


def test_a_sample_whose_original_times_out_fails_once(tmp_path, monkeypatch, capsys):
    chain = Toolchain(extension=".py", run_timeout=0.5)
    monkeypatch.setattr(cli, "default_toolchains", lambda: {Language.PYTHON: chain})
    runs = []
    real_launch = ForkServer.launch
    monkeypatch.setattr(ForkServer, "launch", lambda self, req: runs.append(req) or real_launch(self, req))
    text = "import time\ncount = int(input())\ntime.sleep(30)\nprint(count)\n"
    path = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(path, [(CodeSample(id="sleepy.py", language=Language.PYTHON, text=text),
                               ("1\n", "2\n"))])
    out = tmp_path / "out"
    code = run_cli(
        "peso-run", "--corpus", path, "--engine", "rule", "--seed", "2", "--max-iter", "5",
        "--equivalence", "exec", "--output-dir", out,
    )
    assert code == 2
    [failure] = read_jsonl(out / "failures.jsonl")
    assert failure["sample_id"] == "sleepy.py"
    assert "original cannot be run" in failure["error"] and "exceeded 0.5s" in failure["error"]
    # The attempts before the first candidate that reached the oracle are
    # kept; that oracle call waited on the original once and failed the sample.
    trace = failure["partial_trace"]
    assert [r["method_id"] for r in trace[:2]] == ["function_rename", "variables_rename"]
    assert all(r["verification"] is None for r in trace)
    assert len(runs) == 1
    assert read_jsonl(out / "summary.jsonl") == []


@pytest.mark.skipif(shutil.which("gcc") is None, reason="the C fixtures need gcc")
def test_an_original_that_does_not_compile_fails_its_sample(tmp_path, capsys):
    clip = next(s for s, _ in load_fixture_corpus() if s.id == "clip.c")
    broken = CodeSample(id="clip.c", language=Language.C_CPP,
                        text=clip.text.replace("return 0;", "return undefined_name;"))
    path = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(path, [(broken, ("3 1 5\n",))])
    out = tmp_path / "out"
    code = run_cli(
        "peso-run", "--corpus", path, "--engine", "rule", "--seed", "1", "--max-iter", "3",
        "--equivalence", "exec", "--jobs", "1", "--output-dir", out,
    )
    assert code == 2
    [failure] = read_jsonl(out / "failures.jsonl")
    assert failure["sample_id"] == "clip.c"
    assert failure["error"].startswith("original does not compile: compile failed")
    assert "undefined_name" in failure["error"]
    assert read_jsonl(out / "summary.jsonl") == []


# A function of a larger program: it calls into another file and has no main.
EXTERNAL_HELPER_C = """int helper(int value);

int scaled_sum(int count, int factor) {
    int total = 0;
    for (int i = 0; i < count; i++) {
        total += helper(i) * factor;
    }
    if (total > 100 && factor > 1) {
        return total - 1;
    }
    return total;
}
"""


@pytest.mark.skipif(shutil.which("gcc") is None, reason="needs gcc")
def test_a_suite_less_c_sample_that_calls_into_another_file_only_compiles(tmp_path, monkeypatch, capsys):
    builds = []
    real_run = subprocess.run
    monkeypatch.setattr(subprocess, "run", lambda argv, **kw: builds.append(argv) or real_run(argv, **kw))
    path = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(path, [(CodeSample(id="scaled.c", language=Language.C_CPP, text=EXTERNAL_HELPER_C), ())])
    out = tmp_path / "out"
    code = run_cli(
        "peso-run", "--corpus", path, "--engine", "rule", "--seed", "1", "--max-iter", "3",
        "--equivalence", "auto", "--jobs", "1", "--output-dir", out,
    )
    monkeypatch.undo()
    assert code == 0
    checked = [r["verification"] for r in read_jsonl(out / "traces" / "scaled.c.jsonl")
               if r["verification"] is not None]
    assert checked and all(v["compile_ok"] is True and v["behaviour_ok"] is None for v in checked)
    assert builds and all(argv[:2] == ["gcc", "-c"] for argv in builds)  # no link step


@pytest.mark.skipif(shutil.which("rustc") is None, reason="needs rustc")
def test_a_suite_less_rust_library_without_main_compiles(servers):
    # Without std there is no panic handler, so no main makes this a program.
    library = CodeSample(id="twice.rs", language=Language.RUST_LANG,
                         text="#![no_std]\n\npub fn twice(x: i32) -> i32 {\n    x * 2\n}\n")
    args = cli.build_parser().parse_args(["peso-run", "--corpus", "c.jsonl"])
    toolchain, suite = cli._oracle(args, library, (), default_toolchains())
    assert suite == ()
    runner = verify_module.ProgramRunner(toolchain, servers)
    try:
        assert runner.compile(library) == (True, [])
    finally:
        runner.close()


def test_a_suite_less_sample_without_a_check_command_gets_no_toolchain():
    go = Toolchain(compile_argv=("go", "build", "-o", "{exe}", "{file}"), extension=".go")
    args = cli.build_parser().parse_args(["peso-run", "--corpus", "c.jsonl"])
    sample = CodeSample(id="m.go", language=Language.GO, text="package main\n\nfunc main() {\n}\n")
    assert cli._oracle(args, sample, (), {Language.GO: go}) == (None, ())
    assert cli._oracle(args, sample, ("1\n",), {Language.GO: go}) == (go, ("1\n",))


# sha256 over a seeded rule-engine peso-run of the 22 fixtures: every
# traces/*.jsonl (sorted by name), then summary.jsonl and pairs.jsonl. A
# change that alters traces on purpose updates this constant and says why
# in CHANGES.md.
SEEDED_RUN_DIGEST = "d92e82687baf149afe1c06d1bb5a277887c30b5b8e0279215661bf6eb05761bd"

# The same digest over a seeded random-run (the uniform baseline).
SEEDED_RANDOM_RUN_DIGEST = "244872003baa00557ba2a2e784c4f74c0c34995beffb5a499dd7c896ad1cca85"

# The same digest over the seeded peso-run under the execution oracle, which
# compiles the C fixtures with gcc and runs every input suite.
SEEDED_EXEC_RUN_DIGEST = "3849285fd44b6ed1502d197ac77bcdf1dcb9633bd5e6e579217d84b4738fcbfd"


# sha256 of outcomes.jsonl from a seeded perturb of the 22 fixtures with one
# method under the execution oracle.
SEEDED_EXEC_PERTURB_DIGEST = "3ba1d2c61ce2928ab4c935093445dd6cdf758dc05f493c0fe33451592ec61568"


def _seeded_rule_run(command, tmp_path, monkeypatch, jobs="1", equivalence="stub"):
    """The digest and the digested files ({name: bytes}) of a seeded run."""

    def no_program(*args, **kwargs):  # raised in a worker, it fails the command too
        raise AssertionError(f"a stub run started a program: {args}")

    if equivalence == "stub":
        monkeypatch.setattr(subprocess, "run", no_program)
        monkeypatch.setattr(ForkServer, "__init__", no_program)
    path = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(path, load_fixture_corpus())
    out = tmp_path / f"out-{jobs}"
    code = run_cli(
        command, "--corpus", path, "--engine", "rule", "--seed", "11", "--max-iter", "3",
        "--jobs", jobs, "--equivalence", equivalence, "--output-dir", out,
    )
    assert code == 0
    files = sorted((out / "traces").glob("*.jsonl"))
    assert len(files) == 22
    contents = {f.name: f.read_bytes() for f in files + [out / "summary.jsonl", out / "pairs.jsonl"]}
    return hashlib.sha256(b"".join(contents.values())).hexdigest(), contents


def test_seeded_rule_run_is_frozen(tmp_path, monkeypatch, capsys):
    assert _seeded_rule_run("peso-run", tmp_path, monkeypatch)[0] == SEEDED_RUN_DIGEST


@pytest.mark.skipif(shutil.which("gcc") is None, reason="the C fixtures need gcc")
def test_seeded_exec_run_is_frozen(tmp_path, monkeypatch, capsys):
    digest, _ = _seeded_rule_run("peso-run", tmp_path, monkeypatch, jobs="2", equivalence="exec")
    assert digest == SEEDED_EXEC_RUN_DIGEST


def _seeded_exec_perturb(tmp_path) -> bytes:
    """outcomes.jsonl of a seeded perturb under the execution oracle."""
    path = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(path, load_fixture_corpus())
    out = tmp_path / "out"
    code = run_cli(
        "perturb", "--corpus", path, "--seed", "11", "--method", "swap_boolean_expression",
        "--equivalence", "exec", "--jobs", "2", "--output-dir", out,
    )
    assert code == 0
    return (out / "outcomes.jsonl").read_bytes()


@pytest.mark.skipif(shutil.which("gcc") is None, reason="the C fixtures need gcc")
def test_seeded_exec_perturb_is_frozen(tmp_path, capsys):
    outcomes = _seeded_exec_perturb(tmp_path)
    assert sum(json.loads(line)["applied"] for line in outcomes.splitlines()) == 21
    assert hashlib.sha256(outcomes).hexdigest() == SEEDED_EXEC_PERTURB_DIGEST


def _built_behaviour(sample, suite, directory):
    """(stdout, status) per input of `sample`, built with one gcc command
    and run by subprocess.run, apart from ProgramRunner."""
    directory.mkdir()
    (directory / sample.id).write_text(sample.text)
    subprocess.run(["gcc", sample.id, "-o", "prog", "-lm"], cwd=directory, check=True, timeout=60)
    runs = (subprocess.run([str(directory / "prog")], input=stdin_text.encode(), capture_output=True,
                           cwd=directory, timeout=20) for stdin_text in suite)
    return [(proc.stdout, proc.returncode) for proc in runs]


@pytest.mark.skipif(shutil.which("gcc") is None, reason="the C fixtures need gcc")
def test_every_candidate_settled_by_its_object_behaves_like_its_original(tmp_path, monkeypatch, capsys):
    corpus = load_fixture_corpus({Language.C_CPP})
    assert len(corpus) == 8
    counts, settled = Counter(), []
    real_run, real_launch = subprocess.run, ForkServer.launch
    real_equivalence = verify_module.execution_equivalence

    def build_spy(argv, **kwargs):
        counts["compile" if argv[1] == "-c" else "link"] += 1
        return real_run(argv, **kwargs)

    def launch_spy(self, request):
        counts["launch"] += 1
        return real_launch(self, request)

    def equivalence_spy(original, candidate, suite, runner):
        launches = counts["launch"]
        same = real_equivalence(original, candidate, suite, runner)
        if counts["launch"] == launches:  # settled without running the candidate
            settled.append((original, candidate, suite))
        return same

    monkeypatch.setattr(subprocess, "run", build_spy)
    monkeypatch.setattr(ForkServer, "launch", launch_spy)
    monkeypatch.setattr(verify_module, "execution_equivalence", equivalence_spy)
    path = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(path, corpus)
    code = run_cli(
        "peso-run", "--corpus", path, "--engine", "rule", "--seed", "1", "--max-iter", "3",
        "--jobs", "1", "--equivalence", "exec", "--output-dir", tmp_path / "out",
    )
    monkeypatch.undo()
    assert code == 0
    assert counts == {"compile": 52, "link": 22, "launch": 74}
    # 30 of the 44 distinct candidate texts compile to an object already run.
    assert len({candidate.text for _, candidate, _ in settled}) == 30
    expected = {}
    for n, (original, candidate, suite) in enumerate(settled):
        if original.text not in expected:
            expected[original.text] = _built_behaviour(original, suite, tmp_path / f"original-{n}")
        assert _built_behaviour(candidate, suite, tmp_path / f"candidate-{n}") == expected[original.text]


def test_seeded_rule_run_on_worker_processes_is_frozen(tmp_path, monkeypatch, capsys):
    digest, contents = _seeded_rule_run("peso-run", tmp_path, monkeypatch, jobs="2")
    assert digest == SEEDED_RUN_DIGEST
    assert contents == _seeded_rule_run("peso-run", tmp_path, monkeypatch, jobs="1")[1]


def test_seeded_random_run_is_frozen(tmp_path, monkeypatch, capsys):
    assert _seeded_rule_run("random-run", tmp_path, monkeypatch)[0] == SEEDED_RANDOM_RUN_DIGEST


# The four digests above over the trace shape before reason codes, which
# stated a verdict as `verified`, `accepted`, `verification.passed` and
# `verification.votes`, and an attempt without a candidate as
# `verification.skipped`.
PRE_REASON_DIGESTS = {
    "peso-run": "f742e45380dc35c11356ea11ce0d3639856d8eea69d9852d2c296777369c7bbb",
    "random-run": "67edbcd6c2cf559fe5e6d13b97c9e6d9c2a778509f45f1255413035883a2a24e",
    "exec-peso-run": "a7ad23b840518d91088fbf960d215c8e246392ffc1fe2d74034fea6077df0410",
    "exec-perturb": "8add29b96fd565ad98d01f63a6fb91da481f53b0333ca2f28fd33d4ab8761136",
}

NEEDS_GCC = pytest.mark.skipif(shutil.which("gcc") is None, reason="the C fixtures need gcc")
SEEDED_RUNS = [
    "peso-run", "random-run", pytest.param("exec-peso-run", marks=NEEDS_GCC),
    pytest.param("exec-perturb", marks=NEEDS_GCC),
]


def _seeded_files(kind, tmp_path, monkeypatch) -> dict:
    """The digested files of one seeded run, {name: bytes}."""
    if kind == "exec-perturb":
        return {"outcomes.jsonl": _seeded_exec_perturb(tmp_path)}
    if kind == "exec-peso-run":
        return _seeded_rule_run("peso-run", tmp_path, monkeypatch, jobs="2", equivalence="exec")[1]
    return _seeded_rule_run(kind, tmp_path, monkeypatch)[1]


def _records(data: bytes) -> list[dict]:
    return [json.loads(line) for line in data.splitlines()]


def _pre_reason_verification(v: dict) -> dict:
    votes = [] if v["behaviour_ok"] is None else [{"voter_id": "execution_oracle", "verdict": v["behaviour_ok"]}]
    passed = False not in (v["syntax_ok"], v["compile_ok"], v["behaviour_ok"])
    return {"syntax_ok": v["syntax_ok"], "compile_ok": v["compile_ok"], "votes": votes, "passed": passed,
            "diagnostics": v["diagnostics"]}


def _pre_reason_trace_record(record: dict) -> dict:
    old = dict(record)
    reason, detail, verification = old.pop("reason"), old.pop("detail"), old.pop("verification")
    error_type = {code: cls.__name__ for cls, code in NO_CANDIDATE.items()}.get(reason)
    old["verified"] = reason in ("score_up", "accepted")
    old["accepted"] = reason == "accepted"
    old["verification"] = ({"skipped": f"{error_type}: {detail}"} if verification is None
                           else _pre_reason_verification(verification))
    return old


def _pre_reason_outcome(record: dict) -> dict:
    old = dict(record)
    if "verification" in old:
        old["verification"] = _pre_reason_verification(old["verification"])
    elif "detail" in old:
        old["reason"] = old.pop("detail")
    return old


@pytest.mark.parametrize("kind", SEEDED_RUNS)
def test_seeded_runs_rebuild_the_pre_reason_shape(kind, tmp_path, monkeypatch, capsys):
    """Each old field derives from the new record, and the rebuilt files
    give the digests of the old shape byte for byte."""
    rebuilt = []
    for name, data in _seeded_files(kind, tmp_path, monkeypatch).items():
        if name in ("summary.jsonl", "pairs.jsonl"):
            rebuilt.append(data)
            continue
        convert = _pre_reason_outcome if name == "outcomes.jsonl" else _pre_reason_trace_record
        rebuilt += [json.dumps(convert(r), sort_keys=True).encode() + b"\n" for r in _records(data)]
    assert hashlib.sha256(b"".join(rebuilt)).hexdigest() == PRE_REASON_DIGESTS[kind]


TRACE_KEYS = {"iter", "phase", "method_id", "category", "probabilities", "entry_point", "score", "og",
              "reason", "detail", "verification"}
STAGES = ("syntax", "compile", "behaviour")


def _failed_stage(v: dict) -> str | None:
    """The first stage that a report's fields fail, None when none does."""
    assert v.keys() == {"syntax_ok", "compile_ok", "behaviour_ok", "diagnostics"}
    return next((stage for stage in STAGES if v[f"{stage}_ok"] is False), None)


@pytest.mark.parametrize("kind", SEEDED_RUNS)
def test_every_seeded_record_states_its_outcome_once(kind, tmp_path, monkeypatch, capsys):
    files = _seeded_files(kind, tmp_path, monkeypatch)
    if kind == "exec-perturb":
        outcomes = _records(files["outcomes.jsonl"])
        for r in outcomes:
            if r["applied"]:
                assert r["verified"] == (_failed_stage(r["verification"]) is None) == (r["score"] is not None)
            else:
                assert r.keys() == {"sample_id", "method", "applied", "reason", "detail"}
                assert r["reason"] in NO_CANDIDATE.values()
        assert any(r["applied"] for r in outcomes)
        return
    reasons = Counter()
    for name, data in files.items():
        if name in ("summary.jsonl", "pairs.jsonl"):
            continue
        for r in _records(data):
            assert r.keys() == TRACE_KEYS
            reasons[r["reason"]] += 1
            no_candidate = r["reason"] in NO_CANDIDATE.values()
            scored = r["reason"] in ("score_up", "accepted")
            assert (r["verification"] is None) == (r["detail"] is not None) == no_candidate
            assert (r["score"] is not None) == scored
            if not no_candidate:
                assert _failed_stage(r["verification"]) == (None if scored else r["reason"])
    assert reasons["accepted"] and reasons.keys() <= {*NO_CANDIDATE.values(), *STAGES, "score_up", "accepted"}
