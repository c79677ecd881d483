import hashlib
import json
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from pathlib import Path

import pytest

from codeperturb import cli
from codeperturb.cli import main
from codeperturb.corpusio import read_jsonl
from codeperturb.errors import EngineFailure
from codeperturb.verify import ForkServer, Toolchain

from .conftest import load_fixture_corpus, write_corpus_jsonl
from codeperturb.core import CodeSample, EquivalenceSpec, Language


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


def test_filter_command(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    lines = "\n".join(f"v{i} = {i}" for i in range(45)) + "\n"
    write_corpus_jsonl(
        corpus,
        [
            (make_sample("big.py", lines), None),
            (make_sample("small.py", "x = 1\n"), None),
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
        "--seed", "3", "--equivalence", "stub", "--no-compile", "--output-dir", out,
    )
    assert code == 0
    outcomes = read_jsonl(out / "outcomes.jsonl")
    c_records = [r for r in outcomes if r["sample_id"].endswith(".c")]
    assert len(c_records) == 8
    for r in c_records:
        assert r["applied"] is False and "error" not in r
        assert "cannot apply add_exception to c_cpp" in r["reason"]
    assert not any("error" in r for r in outcomes)


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
    # Each sample waits for the other, so the command finishes only when
    # two samples are in flight at once.
    barrier = threading.Barrier(2, timeout=10)
    real_perturb = cli.perturb

    def waiting_perturb(*args):
        barrier.wait()
        return real_perturb(*args)

    monkeypatch.setattr(cli, "perturb", waiting_perturb)
    path = tmp_path / "two.jsonl"
    write_corpus_jsonl(path, load_fixture_corpus(languages={Language.PYTHON})[:2])
    code = run_cli(
        "perturb", "--method", "modify_operations", "--corpus", path, "--engine", "rule",
        "--seed", "1", "--jobs", "2", "--output-dir", tmp_path / "out",
    )
    assert code == 0
    assert len(read_jsonl(tmp_path / "out" / "outcomes.jsonl")) == 2


def test_perturb_exec_without_an_input_suite_is_a_config_error(tmp_path, monkeypatch, capsys):
    # The bare sample comes last, yet no sample is perturbed: the check
    # runs over the whole corpus before any work starts.
    perturbed = []
    real_perturb = cli.perturb
    monkeypatch.setattr(cli, "perturb", lambda *a: perturbed.append(a[1].id) or real_perturb(*a))
    path = tmp_path / "corpus.jsonl"
    corpus = load_fixture_corpus(languages={Language.PYTHON})[:2]
    write_corpus_jsonl(path, corpus + [(make_sample("bare.py", "def f(x):\n    return x + 1\n"), None)])
    out = tmp_path / "out"
    code = run_cli(
        "perturb", "--method", "modify_operations", "--corpus", path, "--engine", "rule",
        "--equivalence", "exec", "--jobs", "2", "--output-dir", out,
    )
    assert code == 1
    assert "--equivalence exec needs an input_suite" in capsys.readouterr().err
    assert not (out / "outcomes.jsonl").exists()
    assert perturbed == []


def test_llm_engine_without_endpoint_is_config_error(small_corpus, tmp_path, capsys):
    code = run_cli(
        "peso-run", "--corpus", small_corpus, "--engine", "llm",
        "--output-dir", tmp_path / "o",
    )
    assert code == 1
    assert "llm" in capsys.readouterr().err.lower()


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


def test_peso_run_removes_its_scratch_directories(tmp_path, monkeypatch, capsys):
    corpus = [
        item for item in load_fixture_corpus() if item[0].id in ("collatz.c", "collatz.py")
    ]
    assert {s.language for s, _ in corpus} == {Language.C_CPP, Language.PYTHON}
    path = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(path, corpus)
    scratch = tmp_path / "tmp"
    scratch.mkdir()
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
            "--equivalence", "exec", "--output-dir", tmp_path / "out",
        )
    assert code == 0
    summaries = read_jsonl(tmp_path / "out" / "summary.jsonl")
    assert len(summaries) == 2
    assert not list(scratch.glob("codeperturb-*"))
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    # Every fork server the command started has exited and been reaped.
    assert servers and all(s.proc.returncode is not None for s in servers)


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
        "--jobs", "2", "--equivalence", "stub", "--no-compile", "--output-dir", out,
    )
    assert code == 2
    assert [f["sample_id"] for f in read_jsonl(out / "failures.jsonl")] == [slow, fast]
    assert [s["sample_id"] for s in read_jsonl(out / "summary.jsonl")] == [corpus[2][0].id]


def test_a_sample_whose_original_times_out_fails_once(tmp_path, monkeypatch, capsys):
    chain = Toolchain(run_argv=(sys.executable, "{file}"), extension=".py", run_timeout=0.5)
    monkeypatch.setattr(cli, "default_toolchains", lambda: {Language.PYTHON: chain})
    runs = []
    real_launch = ForkServer.launch
    monkeypatch.setattr(ForkServer, "launch", lambda self, req: runs.append(req) or real_launch(self, req))
    text = "import time\ncount = int(input())\ntime.sleep(30)\nprint(count)\n"
    path = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(path, [(CodeSample(id="sleepy.py", language=Language.PYTHON, text=text),
                               EquivalenceSpec(input_suite=("1\n", "2\n")))])
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
    assert all("skipped" in r["verification"] for r in trace)
    assert len(runs) == 1
    assert read_jsonl(out / "summary.jsonl") == []


# sha256 over a seeded rule-engine peso-run of the 22 fixtures: every
# traces/*.jsonl (sorted by name), then summary.jsonl and pairs.jsonl. A
# change that alters traces on purpose updates this constant and says why
# in CHANGES.md.
SEEDED_RUN_DIGEST = "f742e45380dc35c11356ea11ce0d3639856d8eea69d9852d2c296777369c7bbb"

# The same digest over a seeded random-run (the uniform baseline).
SEEDED_RANDOM_RUN_DIGEST = "67edbcd6c2cf559fe5e6d13b97c9e6d9c2a778509f45f1255413035883a2a24e"


def _seeded_rule_run_digest(command, tmp_path, monkeypatch):
    runs, servers = [], []
    monkeypatch.setattr(subprocess, "run", lambda argv, **kw: runs.append(argv))
    monkeypatch.setattr(ForkServer, "__init__", lambda self, *a, **kw: servers.append(a))
    path = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(path, load_fixture_corpus())
    out = tmp_path / "out"
    code = run_cli(
        command, "--corpus", path, "--engine", "rule", "--seed", "11", "--max-iter", "3",
        "--jobs", "1", "--equivalence", "stub", "--no-compile", "--output-dir", out,
    )
    assert code == 0 and runs == [] and servers == []
    files = sorted((out / "traces").glob("*.jsonl"))
    assert len(files) == 22
    digest = hashlib.sha256()
    for f in files + [out / "summary.jsonl", out / "pairs.jsonl"]:
        digest.update(f.read_bytes())
    return digest.hexdigest()


def test_seeded_rule_run_is_frozen(tmp_path, monkeypatch, capsys):
    assert _seeded_rule_run_digest("peso-run", tmp_path, monkeypatch) == SEEDED_RUN_DIGEST


def test_seeded_random_run_is_frozen(tmp_path, monkeypatch, capsys):
    assert _seeded_rule_run_digest("random-run", tmp_path, monkeypatch) == SEEDED_RANDOM_RUN_DIGEST
