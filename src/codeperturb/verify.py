"""Candidate verification: syntax, then compile, then behavioural
equivalence.

One ProgramRunner per sample writes, compiles and runs every program text
of that sample, so the compile stage and the execution oracle share each
compile and the original's outputs. verify() checks a candidate's syntax,
compiles it when it gets a runner, and runs the execution oracle when it
also gets an input suite; its report holds one verdict per stage. Before
the first candidate's compile, judge_original() judges the original once
per sample: one that does not compile, or fails, times out or is
nondeterministic under the oracle, fails its whole sample
(OriginalUnrunnable). After that, any failure of a candidate, a compile
timeout included, rejects that candidate alone. A text is built only as
far as the oracle will run it, and nothing adds a main. A sample with an
input suite builds its program, so an original without a main fails to
build. A sample without one is built by its toolchain's check command
(Toolchain.check_argv), which compiles without linking, so a function that
calls into other files compiles on its own.

Builds run through ``subprocess.run``, in a directory of the text's own
and on names relative to it, so neither diagnostics nor ``__FILE__`` name
a scratch path. C builds in two steps: ``gcc -c`` writes an object, then
``gcc`` links it. A text's build identity is the sha256 of its object
under a link step, and of the text otherwise (Python, Rust, Go). Each text
is compiled once; each identity is linked once, and its output or timeout
on each input is memoized, so a candidate whose object is the original's,
or an earlier candidate's, is settled by that one compile: identical
objects under one link command give identical programs. Every program run
goes through a fork server (``forkserver.py``, POSIX only):
``sys.executable`` on that file, one per process and hash seed, started on
the process's first run and stopped by its ServerPool. The server forks a
child per run, in its own process group and limited in CPU time
(``run_timeout`` + 1 s), address space (4 GiB) and file size (64 MiB). The
child execs the compiled program of a toolchain with a compile step, and
otherwise runs the Python file in-process as ``__main__``. Either runs in
its build directory under its bare name (``./prog``, ``<stem>.py``), so
neither ``argv[0]`` nor ``__file__`` names a scratch path. The server
kills the child's process group once it outlives ``run_timeout``. All
children of one server share its hash seed, so set iteration order no
longer tells an original from its candidates; instead the original's first
input runs once more on a second server with another ``PYTHONHASHSEED``.
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

from .analysis import PythonView, python_view
from .core import CodeSample, Language
from .errors import (
    ConfigError,
    ExecutionTimeout,
    LexError,
    OriginalUnrunnable,
    RunnerFailure,
)
from .lexing import TokenKind, check_balance, lex


@dataclass(frozen=True)
class Toolchain:
    """How one language builds and runs. The command templates run in the
    text's build directory, where {file} is the source, {obj} the object and
    {exe} the program, each named relative to it. With a link template, the
    compile command writes {obj} and the link command links {obj} into
    {exe}; without one, the compile command writes {exe} itself. Without a
    compile command, the text is a Python file, run in the fork server's
    child. The check command compiles a text that no input will run, such
    as a function without a main: it writes {obj} and links nothing. The
    caller builds such a text with it as the compile command and no link
    template; a language without one gets the syntax stage only."""

    compile_argv: tuple[str, ...] | None = None
    link_argv: tuple[str, ...] | None = None
    check_argv: tuple[str, ...] | None = None
    extension: str = ""
    compile_timeout: float = 30.0
    run_timeout: float = 10.0


def default_toolchains() -> dict[Language, Toolchain]:
    chains = {Language.PYTHON: Toolchain(extension=".py")}
    if shutil.which("gcc"):
        compile_only = ("gcc", "-c", "{file}", "-o", "{obj}")
        chains[Language.C_CPP] = Toolchain(
            compile_argv=compile_only,
            link_argv=("gcc", "{obj}", "-o", "{exe}", "-lm"),
            check_argv=compile_only,
            extension=".c",
        )
    if shutil.which("rustc"):
        chains[Language.RUST_LANG] = Toolchain(
            compile_argv=("rustc", "--edition", "2018", "-o", "{exe}", "{file}"),
            check_argv=("rustc", "--edition", "2018", "--crate-type", "lib", "--emit=metadata",
                        "-o", "{obj}", "{file}"),
            extension=".rs",
        )
    if shutil.which("go"):
        chains[Language.GO] = Toolchain(
            compile_argv=("go", "build", "-o", "{exe}", "{file}"),
            extension=".go",
        )
    return chains


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
    if sample.language is Language.JAVA:
        cls = _java_public_class(sample.text)
        stem = Path(sample.id).stem if sample.id.endswith(".java") else None
        if cls and stem and cls != stem:
            diagnostics.append(f"public class {cls} does not match file name {stem}.java")
            return False, diagnostics
    return True, diagnostics


_OBJECT, _PROGRAM = "prog.o", "prog"


def _write_sample(sample: CodeSample, directory: Path, toolchain: Toolchain) -> Path:
    ext = toolchain.extension
    stem = Path(sample.id).stem or "sample"
    suffix = Path(sample.id).suffix
    if suffix in (".c", ".cc", ".cpp", ".py", ".go", ".rs", ".java"):
        ext = suffix
    path = directory / f"{stem}{ext}"
    path.write_text(sample.text, encoding="utf-8")
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
    """Writes, builds and runs the programs of one sample.

    Each distinct text is written to its own subdirectory of one scratch
    directory and compiled there at most once. What follows the compile
    step is memoized per build identity (the sha256 of the object under a
    link step, whose source is then removed, else of the text): the link,
    as (ok, diagnostics, program), and each output or timeout, keyed by
    (identity, input, reseeded). So texts that compile to one object share
    one link and one run per input. Programs run through the fork servers
    of `servers`, which the caller stops. close() removes the scratch
    directory and forgets every build.
    """

    def __init__(self, toolchain: Toolchain, servers: ServerPool):
        self.toolchain = toolchain
        self.servers = servers
        self._scratch: tempfile.TemporaryDirectory | None = None
        self._identities: dict[str, str] = {}  # sha256 of a text -> its build identity
        self._builds: dict[str, tuple[bool | None, list[str], Path]] = {}
        self._outputs: dict[tuple[str, str, bool], tuple[bytes, int] | str] = {}

    def _step(self, argv: tuple[str, ...], file: str, directory: Path) -> tuple[bool, list[str]]:
        """Run one build command in `directory`: (True, []) or (False, diagnostics)."""
        argv = [a.format(file=file, obj=_OBJECT, exe=_PROGRAM) for a in argv]
        try:
            proc = subprocess.run(argv, capture_output=True, timeout=self.toolchain.compile_timeout,
                                  cwd=directory)
        except OSError as exc:
            raise RunnerFailure(f"cannot run {argv[0]!r}: {exc}") from exc
        except subprocess.TimeoutExpired:
            return False, [f"compile timed out after {self.toolchain.compile_timeout}s"]
        if proc.returncode == 0:
            return True, []
        return False, ["compile failed"] + proc.stderr.decode("utf-8", "replace").strip().splitlines()[-8:]

    def _identity(self, sample: CodeSample) -> str:
        """Write and compile a text on first sight, link it unless its
        object is known, and return its build identity."""
        key = hashlib.sha256(sample.text.encode()).hexdigest()
        if key in self._identities:
            return self._identities[key]
        if self._scratch is None:
            self._scratch = tempfile.TemporaryDirectory(prefix="codeperturb-")
        directory = Path(self._scratch.name) / key[:16]
        directory.mkdir(exist_ok=True)
        path = _write_sample(sample, directory, self.toolchain)
        chain, identity = self.toolchain, key
        if chain.compile_argv is None:  # a Python file, run as it is
            self._builds[key] = (None, [], path)
        else:
            ok, diagnostics = self._step(chain.compile_argv, path.name, directory)
            if ok and chain.link_argv is not None:
                path.unlink()  # no run can read the text its object came from
                identity = hashlib.sha256((directory / _OBJECT).read_bytes()).hexdigest()
                if identity not in self._builds:
                    self._builds[identity] = (*self._step(chain.link_argv, path.name, directory),
                                              directory / _PROGRAM)
            else:
                self._builds[key] = (ok, diagnostics, directory / _PROGRAM)
        self._identities[key] = identity
        return identity

    def _prepare(self, sample: CodeSample) -> tuple[bool | None, list[str], Path]:
        """(ok, diagnostics, program) of the text's build identity: ok is
        None without a compile step, and the program is then the Python file."""
        return self._builds[self._identity(sample)]

    def compile(self, sample: CodeSample) -> tuple[bool | None, list[str]]:
        """(None, []) without a compile step, (True, []) on success, else
        (False, ["compile failed", <last 8 stderr lines>]) or (False,
        ["compile timed out after <N>s"]), of the compile or the link step.
        Raises RunnerFailure when a build command cannot start.
        """
        if self.toolchain.compile_argv is None:
            return None, []
        ok, diagnostics, _ = self._prepare(sample)
        return ok, list(diagnostics)

    def _execute(self, sample: CodeSample, program: Path, stdin_text: str,
                 reseeded: bool) -> tuple[bytes, int] | str:
        compiled = self.toolchain.compile_argv is not None
        request = {"argv": [f"./{program.name}"]} if compiled else {"file": program.name}
        stdin_file, stdout_file = program.parent / "stdin", program.parent / "stdout"
        stdin_file.write_bytes(stdin_text.encode())
        request.update(stdin=str(stdin_file), stdout=str(stdout_file), cwd=str(program.parent),
                       timeout=self.toolchain.run_timeout)
        reply = self.servers.server(reseeded).launch(request)
        if "error" in reply:
            raise RunnerFailure(f"cannot run {str(program)!r}: {reply['error']}")
        if "timeout" in reply:
            return f"{sample.id}: input {stdin_text[:30]!r} exceeded {self.toolchain.run_timeout}s"
        return stdout_file.read_bytes(), reply["status"]

    def _result(self, sample: CodeSample, stdin_text: str, reseeded: bool) -> tuple[bytes, int]:
        identity = self._identity(sample)
        key = (identity, stdin_text, reseeded)
        result = self._outputs.get(key)
        if result is None:
            program = self._builds[identity][2]
            result = self._outputs[key] = self._execute(sample, program, stdin_text, reseeded)
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
        self._identities.clear()
        self._builds.clear()


def judge_original(original: CodeSample, runner: ProgramRunner, suite: tuple[str, ...]) -> None:
    """Raise OriginalUnrunnable unless the original compiles and, under an
    input suite, runs every input within the timeout and gives the same
    (stdout, status) on its first input on a server with another hash seed
    (ProgramRunner.rerun): the original and its candidates share one hash
    seed otherwise. `runner` memoizes every step, so a sample pays once."""
    try:
        compiled, diagnostics = runner.compile(original)
        if compiled is False:
            raise OriginalUnrunnable("original does not compile: " + "\n".join(diagnostics))
        for stdin_text in suite:
            runner.run(original, stdin_text)
        repeatable = not suite or runner.rerun(original, suite[0]) == runner.run(original, suite[0])
    except RunnerFailure as exc:
        raise OriginalUnrunnable(f"original cannot be run: {exc}") from exc
    if not repeatable:
        raise OriginalUnrunnable(
            f"original is nondeterministic: input {suite[0][:30]!r} gives another"
            " (stdout, status) under another hash seed"
        )


def execution_equivalence(
    original: CodeSample,
    candidate: CodeSample,
    suite: tuple[str, ...],
    runner: ProgramRunner,
) -> bool:
    """Byte-compare stdout and exit status over the whole input suite,
    stopping at the first input whose results differ. A failure or timeout
    of either program propagates; verify() judges the original first."""
    if not suite:
        raise ConfigError("the execution oracle needs a non-empty input suite")
    return all(runner.run(candidate, stdin_text) == runner.run(original, stdin_text) for stdin_text in suite)


# ---------------------------------------------------------------------------
# Composed verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
    """The verdict of each stage, None where the stage did not run, and the
    diagnostics. Trace records hold these four fields (dataclasses.asdict)."""

    syntax_ok: bool
    compile_ok: bool | None
    behaviour_ok: bool | None
    diagnostics: tuple[str, ...]

    @property
    def failed_stage(self) -> str | None:
        """The first stage whose verdict is False: syntax, compile or behaviour."""
        verdicts = (("syntax", self.syntax_ok), ("compile", self.compile_ok), ("behaviour", self.behaviour_ok))
        return next((stage for stage, ok in verdicts if ok is False), None)

    @property
    def passed(self) -> bool:
        return self.failed_stage is None


def verify(
    original: CodeSample,
    candidate: CodeSample,
    runner: ProgramRunner | None = None,
    suite: tuple[str, ...] = (),
) -> VerificationReport:
    """Syntax, then compile on `runner`, then the execution oracle over the
    input suite `suite`; the first failing stage rejects the candidate.
    Without a runner only syntax is checked, and without an input suite
    no equivalence stage runs. With a runner, judge_original() first
    raises OriginalUnrunnable for an original that cannot be checked
    against.
    """
    syntax_ok, diagnostics = syntax_check(candidate)
    if not syntax_ok:
        return VerificationReport(False, None, None, tuple(diagnostics))
    compile_ok = behaviour_ok = None
    if runner is not None:
        judge_original(original, runner, suite)
        compile_ok, diags = runner.compile(candidate)
        diagnostics.extend(diags)
        if compile_ok is not False and suite:
            try:
                behaviour_ok = execution_equivalence(original, candidate, suite, runner)
            except RunnerFailure as exc:
                behaviour_ok = False
                diagnostics.append(f"execution oracle failed: {exc}")
    return VerificationReport(True, compile_ok, behaviour_ok, tuple(diagnostics))
