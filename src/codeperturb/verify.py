"""Candidate verification: syntax, then compile, then behavioural
equivalence.

One ProgramRunner per sample writes, compiles and runs every program text
of that sample, so the compile stage and the execution oracle share each
compile and the original's outputs. verify() checks a candidate's syntax,
compiles it when it gets a runner, and runs the execution oracle when it
also gets an input suite; its report holds one verdict per stage. A
candidate that fails any stage is simply discarded by the optimizer; an
original that fails, times out or is nondeterministic under the oracle
fails its whole sample instead (OriginalUnrunnable).

Compiles run through ``subprocess.run``. Every program run goes through a
fork server (``forkserver.py``, POSIX only): ``sys.executable`` on that
file, one per process and hash seed, started on the process's first run
and stopped by its ServerPool. The server forks a child per run, in its
own process group and limited in CPU time (``run_timeout`` + 1 s), address
space (4 GiB) and file size (64 MiB). The child runs the file in-process as
``__main__`` when the toolchain's ``run_argv`` is exactly
``(sys.executable, "{file}")`` and execs any other command; the server
kills the child's process group once it outlives ``run_timeout``. All
children of one server share its hash seed, so set iteration order no
longer tells an original from its candidates; instead the oracle runs the
original's first input once more on a second server with another
``PYTHONHASHSEED`` and fails the sample when the two results differ.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

from .analysis import PythonView, has_main_function, python_view
from .core import CodeSample, Language
from .errors import (
    ConfigError,
    ExecutionTimeout,
    LexError,
    OriginalUnrunnable,
    RunnerFailure,
    ToolchainUnavailable,
)
from .lexing import TokenKind, check_balance, lex


@dataclass(frozen=True)
class Toolchain:
    """Command templates with {file} and {exe} placeholders."""

    run_argv: tuple[str, ...]
    compile_argv: tuple[str, ...] | None = None
    extension: str = ""
    compile_timeout: float = 30.0
    run_timeout: float = 10.0


def default_toolchains() -> dict[Language, Toolchain]:
    chains = {
        Language.PYTHON: Toolchain(run_argv=(sys.executable, "{file}"), extension=".py")
    }
    if shutil.which("gcc"):
        chains[Language.C_CPP] = Toolchain(
            compile_argv=("gcc", "{file}", "-o", "{exe}", "-lm"),
            run_argv=("{exe}",),
            extension=".c",
        )
    if shutil.which("rustc"):
        chains[Language.RUST_LANG] = Toolchain(
            compile_argv=("rustc", "--edition", "2018", "-o", "{exe}", "{file}"),
            run_argv=("{exe}",),
            extension=".rs",
        )
    if shutil.which("go"):
        chains[Language.GO] = Toolchain(
            compile_argv=("go", "build", "-o", "{exe}", "{file}"),
            run_argv=("{exe}",),
            extension=".go",
        )
    return chains


_SYNTH_MAIN = {
    Language.GO: "\nfunc main() {\n}\n",
    Language.RUST_LANG: "\nfn main() {\n}\n",
    Language.C_CPP: "\nint main(void) { return 0; }\n",
}


def ensure_main(text: str, language: Language) -> tuple[str, bool]:
    """Append an empty main when a compiled language lacks one."""
    if language not in _SYNTH_MAIN or has_main_function(text, language):
        return text, False
    if not text.endswith("\n"):
        text += "\n"
    return text + _SYNTH_MAIN[language], True


def _java_public_class(text: str) -> str | None:
    toks = lex(text, Language.JAVA)
    for i, t in enumerate(toks[:-2]):
        if t.text == "public" and toks[i + 1].text == "class" and toks[i + 2].kind is TokenKind.IDENT:
            return toks[i + 2].text
    return None


def _compile(view: PythonView, name: str) -> None:
    """Settle view.compiles as compile() of its tree would, raising what
    that raises. When the view's base is known to compile (or compiles
    now), its fresh statements compile alone; should they fail, the whole
    tree compiles, so that the error is the one a full compile reports."""
    base, view.base = view.base, None
    if base is not None and base.compiles is None:
        with contextlib.suppress(SyntaxError, RecursionError):
            _compile(base, name)
    if base is not None and base.compiles:
        with contextlib.suppress(SyntaxError, RecursionError):
            compile(ast.Module(body=view.fresh, type_ignores=[]), name, "exec", dont_inherit=True)
            view.compiles = True
            return
    view.compiles = False
    try:
        compile(view.tree, name, "exec", dont_inherit=True)
    except RecursionError:  # compile() of a tree nests deeper than compile() of its text
        compile(view.text, name, "exec", dont_inherit=True)
    view.compiles = True


def syntax_check(sample: CodeSample) -> tuple[bool, list[str]]:
    """Lexical/grammar validation plus the per-language structural rules.

    Python is compiled to bytecode, which also finds the errors that only
    the compiler reports ('return' outside a function and the like), with
    no future features of this module inherited. The syntax tree comes
    from the shared parsed view, whose SyntaxError words a parse failure;
    a view built from another text's view compiles only its re-parsed
    statements when that view is known to compile, and the text itself is
    compiled only when the tree nests too deeply for compile(). The other
    languages get lexical validation (tokenizable, balanced delimiters);
    grammar-level checking for them is the compile stage's job when a
    toolchain is configured.
    """
    diagnostics: list[str] = []
    if sample.language is Language.PYTHON:
        try:
            view = python_view(sample.text)
            if not view.compiles:
                _compile(view, sample.id or "<sample>")
            return True, diagnostics
        except SyntaxError as exc:
            diagnostics.append(f"syntax error at line {exc.lineno}, offset {exc.offset}: {exc.msg}")
            return False, diagnostics
        except RecursionError as exc:  # the text nests too deeply for compile() as well
            diagnostics.append(f"syntax error: {exc}")
            return False, diagnostics
    try:
        tokens = lex(sample.text, sample.language)
    except LexError as exc:
        diagnostics.append(f"unlexable input at offset {exc.offset}: {exc}")
        return False, diagnostics
    if not tokens:
        diagnostics.append("empty token stream")
        return False, diagnostics
    problem = check_balance(tokens)
    if problem:
        diagnostics.append(problem)
        return False, diagnostics
    if sample.language in _SYNTH_MAIN and not has_main_function(sample.text, sample.language):
        diagnostics.append("no main function; synthetic empty main injected for toolchain stages")
    if sample.language is Language.JAVA:
        cls = _java_public_class(sample.text)
        stem = Path(sample.id).stem if sample.id.endswith(".java") else None
        if cls and stem and cls != stem:
            diagnostics.append(f"public class {cls} does not match file name {stem}.java")
            return False, diagnostics
    return True, diagnostics


def _fill(argv: tuple[str, ...], file: str, exe: str) -> list[str]:
    return [a.format(file=file, exe=exe) for a in argv]


def _write_sample(sample: CodeSample, directory: Path, toolchain: Toolchain) -> Path:
    ext = toolchain.extension
    stem = Path(sample.id).stem or "sample"
    suffix = Path(sample.id).suffix
    if suffix in (".c", ".cc", ".cpp", ".py", ".go", ".rs", ".java"):
        ext = suffix
    text, _ = ensure_main(sample.text, sample.language)
    path = directory / f"{stem}{ext}"
    path.write_text(text, encoding="utf-8")
    return path


_SERVER_FILE = Path(__file__).with_name("forkserver.py")


def _other_hash_seed() -> str:
    """A PYTHONHASHSEED unlike the one a server started now inherits."""
    current = os.environ.get("PYTHONHASHSEED", "random")
    return str((int(current) + 1) % 2**32) if current.isdigit() else "1"


class ForkServer:
    """One fork server process; launch() is the only way a program runs."""

    def __init__(self, hash_seed: str | None = None):
        self.hash_seed = hash_seed
        env = None if hash_seed is None else {**os.environ, "PYTHONHASHSEED": hash_seed}
        self.proc = subprocess.Popen(
            [sys.executable, str(_SERVER_FILE)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
        )

    def launch(self, request: dict) -> dict:
        """Send one request and wait for its reply (see forkserver.py)."""
        try:
            self.proc.stdin.write(json.dumps(request).encode() + b"\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
        except OSError:
            line = b""
        if not line:
            self.stop()  # reap it, so that its pool starts another
            raise RunnerFailure("fork server exited")
        return json.loads(line)

    def stop(self) -> None:
        """End of input stops the server; then reap it."""
        for pipe in (self.proc.stdin, self.proc.stdout):
            with contextlib.suppress(OSError):
                pipe.close()
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class ServerPool:
    """The fork servers of one owner in one process: one per hash seed,
    each started on its first run. stop() ends them all; a pool that ran
    nothing started nothing."""

    def __init__(self):
        self._servers: dict[bool, ForkServer] = {}

    def server(self, reseeded: bool) -> ForkServer:
        server = self._servers.get(reseeded)
        if server is not None and server.proc.poll() is not None:
            server.stop()  # it died; start another
            server = None
        if server is None:
            server = self._servers[reseeded] = ForkServer(_other_hash_seed() if reseeded else None)
        return server

    def stop(self) -> None:
        servers, self._servers = self._servers, {}
        for server in servers.values():
            server.stop()


class ProgramRunner:
    """Writes, compiles and runs the programs of one sample.

    Each distinct text is written to its own subdirectory of one scratch
    directory and compiled at most once; compile results, outputs and
    timeouts are memoized per text (and per input). Programs run through
    the fork servers of `servers`, which the caller stops. close() removes
    the scratch directory.
    """

    def __init__(self, toolchain: Toolchain, servers: ServerPool):
        self.toolchain = toolchain
        self.servers = servers
        self._scratch: tempfile.TemporaryDirectory | None = None
        self._builds: dict[str, tuple[bool | None, list[str], Path, str]] = {}
        self._outputs: dict[tuple[str, str, bool], tuple[bytes, int] | str] = {}

    def _prepare(self, sample: CodeSample) -> tuple[bool | None, list[str], Path, str]:
        key = hashlib.sha256(sample.text.encode()).hexdigest()
        if key in self._builds:
            return self._builds[key]
        if self._scratch is None:
            self._scratch = tempfile.TemporaryDirectory(prefix="codeperturb-")
        directory = Path(self._scratch.name) / key[:16]
        directory.mkdir(exist_ok=True)
        path = _write_sample(sample, directory, self.toolchain)
        exe = str(directory / "prog")
        ok, diagnostics = None, []
        if self.toolchain.compile_argv is not None:
            argv = _fill(self.toolchain.compile_argv, str(path), exe)
            try:
                proc = subprocess.run(
                    argv, capture_output=True, timeout=self.toolchain.compile_timeout,
                    cwd=directory,
                )
            except FileNotFoundError as exc:
                raise ToolchainUnavailable(f"cannot run {argv[0]!r}: {exc}") from exc
            except subprocess.TimeoutExpired as exc:
                raise ToolchainUnavailable(
                    f"compile timed out after {self.toolchain.compile_timeout}s"
                ) from exc
            ok = proc.returncode == 0
            if not ok:
                tail = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-8:]
                diagnostics = ["compile failed"] + tail
        self._builds[key] = (ok, diagnostics, path, exe)
        return self._builds[key]

    def compile(self, sample: CodeSample) -> tuple[bool | None, list[str]]:
        """(None, []) without a compile step, (True, []) on success, else
        (False, ["compile failed", <last 8 stderr lines>]). Raises
        ToolchainUnavailable when the compiler cannot start or times out.
        """
        if self.toolchain.compile_argv is None:
            return None, []
        ok, diagnostics, _, _ = self._prepare(sample)
        return ok, list(diagnostics)

    def _execute(self, sample: CodeSample, stdin_text: str, reseeded: bool) -> tuple[bytes, int] | str:
        ok, diagnostics, path, exe = self._prepare(sample)
        if ok is False:
            raise RunnerFailure("candidate does not compile: " + "\n".join(diagnostics[1:]))
        argv = _fill(self.toolchain.run_argv, str(path), exe)
        in_process = self.toolchain.run_argv == (sys.executable, "{file}")
        request = {"file": str(path)} if in_process else {"argv": argv}
        stdin_file, stdout_file = path.parent / "stdin", path.parent / "stdout"
        stdin_file.write_bytes(stdin_text.encode())
        request.update(stdin=str(stdin_file), stdout=str(stdout_file), cwd=str(path.parent),
                       timeout=self.toolchain.run_timeout)
        reply = self.servers.server(reseeded).launch(request)
        if "error" in reply:
            raise RunnerFailure(f"cannot run {argv[0]!r}: {reply['error']}")
        if "timeout" in reply:
            return f"{sample.id}: input {stdin_text[:30]!r} exceeded {self.toolchain.run_timeout}s"
        return stdout_file.read_bytes(), reply["status"]

    def _result(self, sample: CodeSample, stdin_text: str, reseeded: bool) -> tuple[bytes, int]:
        key = (hashlib.sha256(sample.text.encode()).hexdigest(), stdin_text, reseeded)
        result = self._outputs.get(key)
        if result is None:
            result = self._outputs[key] = self._execute(sample, stdin_text, reseeded)
        if isinstance(result, str):  # the message of a memoized timeout
            raise ExecutionTimeout(result)
        return result

    def run(self, sample: CodeSample, stdin_text: str) -> tuple[bytes, int]:
        """(stdout, exit status) of the program on one input."""
        return self._result(sample, stdin_text, reseeded=False)

    def rerun(self, sample: CodeSample, stdin_text: str) -> tuple[bytes, int]:
        """run() once more, on a fork server with another hash seed."""
        return self._result(sample, stdin_text, reseeded=True)

    def close(self) -> None:
        """Remove every file this runner wrote; later calls rebuild."""
        if self._scratch is not None:
            self._scratch.cleanup()
            self._scratch = None
        self._builds.clear()


def execution_equivalence(
    original: CodeSample,
    candidate: CodeSample,
    suite: tuple[str, ...],
    runner: ProgramRunner,
) -> bool:
    """Byte-compare stdout and exit status over the whole input suite.

    A failure or timeout of the original raises OriginalUnrunnable; one of
    the candidate propagates as is and rejects only that candidate. The
    original's first input also runs once more, before any candidate, on a
    server with another hash seed (ProgramRunner.rerun); another result
    there raises OriginalUnrunnable as well.
    """
    if not suite:
        raise ConfigError("the execution oracle needs a non-empty input suite")
    for i, stdin_text in enumerate(suite):
        try:
            expected = runner.run(original, stdin_text)
            repeatable = i > 0 or runner.rerun(original, stdin_text) == expected
        except (RunnerFailure, ToolchainUnavailable) as exc:
            raise OriginalUnrunnable(f"original cannot be run: {exc}") from exc
        if not repeatable:
            raise OriginalUnrunnable(
                f"original is nondeterministic: input {stdin_text[:30]!r} gives another"
                " (stdout, status) under another hash seed"
            )
        if runner.run(candidate, stdin_text) != expected:
            return False
    return True


# ---------------------------------------------------------------------------
# Composed verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
    """The verdict of each stage, None where the stage did not run."""

    syntax_ok: bool
    compile_ok: bool | None
    behaviour_ok: bool | None
    diagnostics: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.syntax_ok and self.compile_ok is not False and self.behaviour_ok is not False

    def to_dict(self) -> dict:
        return {
            "syntax_ok": self.syntax_ok,
            "compile_ok": self.compile_ok,
            "votes": [] if self.behaviour_ok is None
            else [{"voter_id": "execution_oracle", "verdict": self.behaviour_ok}],
            "passed": self.passed,
            "diagnostics": list(self.diagnostics),
        }


def verify(
    original: CodeSample,
    candidate: CodeSample,
    runner: ProgramRunner | None = None,
    suite: tuple[str, ...] = (),
) -> VerificationReport:
    """Syntax, then compile on `runner`, then the execution oracle over the
    input suite `suite`; the first failing stage rejects the candidate.
    Without a runner only syntax is checked, and without an input suite
    no equivalence stage runs.

    Under the execution oracle every run of one process goes through one
    fork server, so the original and its candidates share that server's
    hash seed: a program whose output hangs on the iteration order of a
    set of strings gives the same output in both. The oracle therefore runs the original's
    first input once more under another PYTHONHASHSEED and raises
    OriginalUnrunnable when the results differ.
    """
    syntax_ok, diagnostics = syntax_check(candidate)
    if not syntax_ok:
        return VerificationReport(False, None, None, tuple(diagnostics))
    compile_ok = behaviour_ok = None
    if runner is not None:
        compile_ok, diags = runner.compile(candidate)
        diagnostics.extend(diags)
        if compile_ok is not False and suite:
            try:
                behaviour_ok = execution_equivalence(original, candidate, suite, runner)
            except (RunnerFailure, ToolchainUnavailable) as exc:
                behaviour_ok = False
                diagnostics.append(f"execution oracle failed: {exc}")
    return VerificationReport(True, compile_ok, behaviour_ok, tuple(diagnostics))
