"""The launch path: every program run goes through a fork server.

Results through the server are compared with an independent launch of the
same file (``python file``, or the compiled executable for C) by
``subprocess.run``.
"""

import resource
import subprocess
import sys
import textwrap
import time

import pytest

from codeperturb.core import CodeSample, Language
from codeperturb.corpusio import read_jsonl
from codeperturb.errors import ExecutionTimeout, RunnerFailure
from codeperturb.forkserver import FILE_SIZE_LIMIT, MEMORY_LIMIT, cpu_limit
from codeperturb.verify import ProgramRunner, Toolchain, default_toolchains, verify

from .conftest import load_fixture_corpus, write_corpus_jsonl
from .test_cli import run_cli

TOOLCHAINS = default_toolchains()
PYTHON = TOOLCHAINS[Language.PYTHON]


@pytest.fixture
def runner(servers):
    made = ProgramRunner(PYTHON, servers)
    yield made
    made.close()


def direct(runner, sample, stdin_text):
    """(stdout, status) of the runner's own file for `sample`, launched
    without the fork server."""
    _, _, program = runner._prepare(sample)
    argv = [sys.executable, str(program)] if sample.language is Language.PYTHON else [str(program)]
    proc = subprocess.run(argv, input=stdin_text.encode(), capture_output=True, cwd=program.parent, timeout=30)
    return proc.stdout, proc.returncode


def test_every_fixture_input_runs_alike_through_the_server(servers):
    corpus = [item for item in load_fixture_corpus() if item[0].language in TOOLCHAINS]
    assert len(corpus) == 22 or Language.C_CPP not in TOOLCHAINS
    for sample, suite in corpus:
        runner = ProgramRunner(TOOLCHAINS[sample.language], servers)
        try:
            for stdin_text in suite:
                assert runner.run(sample, stdin_text) == direct(runner, sample, stdin_text), (
                    sample.id, stdin_text,
                )
        finally:
            runner.close()


EDGE_PROGRAMS = {
    "exit_none": ("import sys\nprint('a')\nsys.exit()\n", 0),
    "exit_int": ("import sys\nprint('a')\nsys.exit(3)\n", 3),
    "exit_str": ("import sys\nprint('a')\nsys.exit('msg')\n", 1),
    "uncaught": ("print('before')\nraise ValueError('boom')\n", 1),
    "no_newline": ("import sys\nsys.stdout.write('no newline')\n", 0),
    "atexit": ("import atexit\natexit.register(print, 'at exit')\nprint('main')\n", 0),
    "all_stdin": ("import sys\ndata = sys.stdin.read()\nprint(len(data), data.split())\n", 0),
    "thread_after_main": (
        textwrap.dedent(
            """\
            import threading, time

            def late():
                time.sleep(0.2)
                print('from thread')

            threading.Thread(target=late).start()
            print('main done')
            """
        ),
        0,
    ),
}


@pytest.mark.parametrize("name", sorted(EDGE_PROGRAMS))
def test_edge_programs_match_a_fresh_interpreter(runner, name):
    text, status = EDGE_PROGRAMS[name]
    sample = CodeSample(id=f"{name}.py", language=Language.PYTHON, text=text)
    stdin_text = "one two\nthree\n"
    result = runner.run(sample, stdin_text)
    assert result == direct(runner, sample, stdin_text)
    assert result[1] == status
    if name == "thread_after_main":
        assert result[0] == b"main done\nfrom thread\n"
    if name == "atexit":
        assert result[0] == b"main\nat exit\n"


def test_a_cpu_spinner_is_rejected_within_the_timeout(servers):
    runner = ProgramRunner(Toolchain(extension=".py", run_timeout=1.0), servers)
    try:
        base = CodeSample(id="s.py", language=Language.PYTHON, text="print(1)\n")
        spinner = base.derive("while True:\n    pass\n", "variables_rename")
        start = time.monotonic()
        report = verify(base, spinner, runner, ("1\n",))
        assert time.monotonic() - start < 1.0 + 2.0
        assert not report.passed and any("exceeded 1.0s" in d for d in report.diagnostics)
    finally:
        runner.close()


def test_an_8gb_allocation_fails_in_the_child(runner):
    sample = CodeSample(id="big.py", language=Language.PYTHON,
                        text="block = bytearray(8 << 30)\nprint('held', len(block))\n")
    start = time.monotonic()
    out, status = runner.run(sample, "")
    assert status != 0 and b"held" not in out
    assert time.monotonic() - start < 5.0  # refused at once, not paged in


def test_the_child_runs_under_all_three_limits(runner):
    text = textwrap.dedent(
        """\
        import resource
        for name in ("RLIMIT_CPU", "RLIMIT_AS", "RLIMIT_FSIZE"):
            print(name, *resource.getrlimit(getattr(resource, name)))
        """
    )
    out, status = runner.run(CodeSample(id="limits.py", language=Language.PYTHON, text=text), "")
    assert status == 0
    expected = {
        "RLIMIT_CPU": cpu_limit(PYTHON.run_timeout),
        "RLIMIT_AS": MEMORY_LIMIT,
        "RLIMIT_FSIZE": FILE_SIZE_LIMIT,
    }
    for name, limit in expected.items():
        hard = resource.getrlimit(getattr(resource, name))[1]
        value = limit if hard == resource.RLIM_INFINITY else min(limit, hard)
        assert f"{name} {value} {value}".encode() in out.splitlines()


def test_a_timed_out_child_loses_its_whole_process_group(tmp_path, servers):
    marker = tmp_path / "marker"
    text = textwrap.dedent(
        f"""\
        import subprocess, sys
        subprocess.Popen([sys.executable, "-c",
                          "import time; time.sleep(1.5); open({str(marker)!r}, 'w').write('x')"])
        import time
        time.sleep(30)
        """
    )
    runner = ProgramRunner(Toolchain(extension=".py", run_timeout=0.5), servers)
    try:
        with pytest.raises(ExecutionTimeout):
            runner.run(CodeSample(id="group.py", language=Language.PYTHON, text=text), "")
    finally:
        runner.close()
    time.sleep(2.0)
    assert not marker.exists()


def test_a_command_that_cannot_start_is_a_runner_failure(servers):
    # The compile step succeeds but writes no program, so there is nothing to exec.
    runner = ProgramRunner(Toolchain(compile_argv=("true",), extension=".c"), servers)
    try:
        with pytest.raises(RunnerFailure, match="cannot run '.*/prog': FileNotFoundError"):
            runner.run(CodeSample(id="a.c", language=Language.C_CPP, text="int main(void) { return 0; }\n"), "")
    finally:
        runner.close()


def test_a_killed_server_fails_one_run_and_is_replaced(runner):
    killer = CodeSample(id="k.py", language=Language.PYTHON,
                        text="import os, signal\nos.kill(os.getppid(), signal.SIGKILL)\n")
    with pytest.raises(RunnerFailure, match="fork server exited"):
        runner.run(killer, "")
    echo = CodeSample(id="e.py", language=Language.PYTHON, text="print(input())\n")
    assert runner.run(echo, "7\n") == (b"7\n", 0)


def test_a_shared_pool_starts_one_server_per_hash_seed_and_stop_ends_them(servers):
    pool = servers
    runners = [ProgramRunner(PYTHON, pool) for _ in range(2)]
    sample = CodeSample(id="t.py", language=Language.PYTHON, text="print(input())\n")
    assert runners[0].run(sample, "0\n") == (b"0\n", 0)
    assert runners[1].rerun(sample, "1\n") == (b"1\n", 0)
    servers = list(pool._servers.values())
    assert len(servers) == 2
    assert sorted(s.hash_seed is None for s in servers) == [False, True]  # the plain one and the reseeded one
    for r in runners:
        r.close()
    assert all(s.proc.returncode is None for s in servers)  # the pool owns them, not the runners
    pool.stop()
    assert [s.proc.returncode for s in servers] == [0, 0]


SET_PRINTER = textwrap.dedent(
    """\
    def describe(count):
        words = {f"word{i}" for i in range(20)}
        total = count * 2
        return str(total) + " " + " ".join(words)

    print(describe(int(input())))
    """
)


@pytest.mark.parametrize("hash_seed", [None, "0", "1"])
def test_a_nondeterministic_original_fails_its_sample_once(tmp_path, monkeypatch, capsys, hash_seed):
    if hash_seed is None:
        monkeypatch.delenv("PYTHONHASHSEED", raising=False)
    else:
        monkeypatch.setenv("PYTHONHASHSEED", hash_seed)
    path = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(path, [(CodeSample(id="sets.py", language=Language.PYTHON, text=SET_PRINTER),
                               ("1\n", "2\n"))])
    out = tmp_path / "out"
    code = run_cli(
        "peso-run", "--corpus", path, "--engine", "rule", "--seed", "2", "--max-iter", "5",
        "--equivalence", "exec", "--output-dir", out,
    )
    assert code == 2
    [failure] = read_jsonl(out / "failures.jsonl")
    assert failure["sample_id"] == "sets.py"
    assert failure["error"].startswith("original is nondeterministic: input '1\\n'")
    # The first candidate that reached the oracle failed the sample; the
    # attempts kept before it never got there.
    assert all("skipped" in r["verification"] for r in failure["partial_trace"])
    assert read_jsonl(out / "summary.jsonl") == []
