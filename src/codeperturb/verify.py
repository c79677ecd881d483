"""Candidate verification: syntactic validity, optional compilation, and
semantic-equivalence judging.

One ProgramRunner per sample writes, compiles and runs every program text
of that sample, so the compile stage and the execution oracle share each
compile and the original's outputs. The equivalence stage is chosen by
precedence: an execution oracle when a runner plus input suite is
configured, else a majority vote of the voters the caller supplies, else
none. There is no built-in LLM judge: a voter is any object with an ``id``
and a ``vote(original, candidate)`` method. A candidate that fails any stage
is simply discarded by the optimizer; an original that fails or times out
under the oracle fails its whole sample instead (OriginalUnrunnable).
"""

from __future__ import annotations

import hashlib
import shutil
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path

from .analysis import has_main_function
from .core import CodeSample, EquivalenceSpec, Language
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
    """Command templates with {file}, {dir} and {exe} placeholders."""

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


def syntax_check(sample: CodeSample) -> tuple[bool, list[str]]:
    """Lexical/grammar validation plus the per-language structural rules.

    Python gets a true grammar parse. The other languages get lexical
    validation (tokenizable, balanced delimiters); grammar-level checking
    for them is the compile stage's job when a toolchain is configured.
    """
    diagnostics: list[str] = []
    if sample.language is Language.PYTHON:
        try:
            compile(sample.text, sample.id or "<sample>", "exec")
            return True, diagnostics
        except SyntaxError as exc:
            diagnostics.append(f"syntax error at line {exc.lineno}, offset {exc.offset}: {exc.msg}")
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


def _fill(argv: tuple[str, ...], file: str, directory: str, exe: str) -> list[str]:
    return [a.format(file=file, dir=directory, exe=exe) for a in argv]


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


class ProgramRunner:
    """Writes, compiles and runs the programs of one sample.

    Each distinct text is written to its own subdirectory of one scratch
    directory and compiled at most once; compile results, outputs and
    timeouts are memoized per text (and per input). close() removes the
    scratch directory.
    """

    def __init__(self, toolchain: Toolchain):
        self.toolchain = toolchain
        self._lock = threading.Lock()
        self._scratch: tempfile.TemporaryDirectory | None = None
        self._builds: dict[str, tuple[bool | None, list[str], Path, str]] = {}
        self._outputs: dict[tuple[str, str], tuple[bytes, int] | str] = {}

    def _prepare(self, sample: CodeSample) -> tuple[bool | None, list[str], Path, str]:
        key = hashlib.sha256(sample.text.encode()).hexdigest()
        with self._lock:
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
                argv = _fill(self.toolchain.compile_argv, str(path), str(directory), exe)
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

    def _execute(self, sample: CodeSample, stdin_text: str) -> tuple[bytes, int] | str:
        ok, diagnostics, path, exe = self._prepare(sample)
        if ok is False:
            raise RunnerFailure("candidate does not compile: " + "\n".join(diagnostics[1:]))
        argv = _fill(self.toolchain.run_argv, str(path), str(path.parent), exe)
        try:
            proc = subprocess.run(
                argv,
                input=stdin_text.encode(),
                capture_output=True,
                timeout=self.toolchain.run_timeout,
                cwd=path.parent,
            )
        except FileNotFoundError as exc:
            raise RunnerFailure(f"cannot run {argv[0]!r}: {exc}") from exc
        except subprocess.TimeoutExpired:
            return f"{sample.id}: input {stdin_text[:30]!r} exceeded {self.toolchain.run_timeout}s"
        return proc.stdout, proc.returncode

    def run(self, sample: CodeSample, stdin_text: str) -> tuple[bytes, int]:
        """(stdout, exit status) of the program on one input."""
        key = (hashlib.sha256(sample.text.encode()).hexdigest(), stdin_text)
        with self._lock:
            result = self._outputs.get(key)
        if result is None:
            result = self._execute(sample, stdin_text)
            with self._lock:
                self._outputs[key] = result
        if isinstance(result, str):  # the message of a memoized timeout
            raise ExecutionTimeout(result)
        return result

    def close(self) -> None:
        """Remove every file this runner wrote; later calls rebuild."""
        with self._lock:
            if self._scratch is not None:
                self._scratch.cleanup()
                self._scratch = None
            self._builds.clear()


def execution_equivalence(
    original: CodeSample,
    candidate: CodeSample,
    spec: EquivalenceSpec,
    runner: ProgramRunner,
) -> bool:
    """Byte-compare stdout and exit status over the whole input suite.

    A failure or timeout of the original raises OriginalUnrunnable; one of
    the candidate propagates as is and rejects only that candidate.
    """
    if not spec.input_suite:
        raise ConfigError("equivalence spec has an empty input suite")
    for stdin_text in spec.input_suite:
        try:
            out_a, code_a = runner.run(original, stdin_text)
        except (RunnerFailure, ToolchainUnavailable) as exc:
            raise OriginalUnrunnable(f"original cannot be run: {exc}") from exc
        out_b, code_b = runner.run(candidate, stdin_text)
        if out_a != out_b or code_a != code_b:
            return False
    return True


# ---------------------------------------------------------------------------
# Voting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Vote:
    voter_id: str
    verdict: bool


class StubVoter:
    """Always-true stand-in for environments without judges."""

    kind = "ALWAYS_TRUE_STUB"

    def __init__(self, voter_id: str = "stub"):
        self.id = voter_id

    def vote(self, original: CodeSample, candidate: CodeSample) -> bool:
        return True


def vote_equivalence(
    original: CodeSample, candidate: CodeSample, voters: list
) -> tuple[list[Vote], bool, list[str]]:
    """Collect one strict boolean per voter; majority wins.

    Any voter failure is downgraded to a False vote and logged. Voters of
    kind "LLM_JUDGE" must come as exactly three.
    """
    if any(getattr(v, "kind", "") == "LLM_JUDGE" for v in voters) and len(voters) != 3:
        raise ConfigError("LLM judging requires exactly three voters")
    votes: list[Vote] = []
    diagnostics: list[str] = []
    for voter in voters:
        try:
            verdict = bool(voter.vote(original, candidate))
        except Exception as exc:
            verdict = False
            diagnostics.append(f"voter {voter.id} failed, counted False: {exc}")
        votes.append(Vote(voter_id=voter.id, verdict=verdict))
    passed = sum(v.verdict for v in votes) * 2 > len(votes)
    return votes, passed, diagnostics


# ---------------------------------------------------------------------------
# Composed verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
    syntax_ok: bool
    compile_ok: bool | None
    votes: tuple[Vote, ...]
    passed: bool
    diagnostics: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "syntax_ok": self.syntax_ok,
            "compile_ok": self.compile_ok,
            "votes": [{"voter_id": v.voter_id, "verdict": v.verdict} for v in self.votes],
            "passed": self.passed,
            "diagnostics": list(self.diagnostics),
        }


@dataclass
class VerifyPolicy:
    """What verification stages run and with what resources.

    The runner, when set, serves both the compile stage and the execution
    oracle. Equivalence precedence: execution oracle (runner + input
    suite), then a majority of the caller's voters, then nothing
    (syntax/compile only). No voter is built in beyond StubVoter.
    """

    equivalence_spec: EquivalenceSpec | None = None
    runner: ProgramRunner | None = None
    voters: list = field(default_factory=list)
    compile_stage: bool = True


def verify(original: CodeSample, candidate: CodeSample, policy: VerifyPolicy) -> VerificationReport:
    syntax_ok, diagnostics = syntax_check(candidate)
    if not syntax_ok:
        return VerificationReport(False, None, (), False, tuple(diagnostics))
    compile_ok: bool | None = None
    if policy.compile_stage and policy.runner is not None:
        compile_ok, diags = policy.runner.compile(candidate)
        diagnostics.extend(diags)
        if compile_ok is False:
            return VerificationReport(True, False, (), False, tuple(diagnostics))
    votes: tuple[Vote, ...] = ()
    votes_pass = True
    if policy.runner is not None and policy.equivalence_spec and policy.equivalence_spec.input_suite:
        try:
            verdict = execution_equivalence(
                original, candidate, policy.equivalence_spec, policy.runner
            )
        except (RunnerFailure, ToolchainUnavailable) as exc:
            verdict = False
            diagnostics.append(f"execution oracle failed: {exc}")
        votes = (Vote(voter_id="execution_oracle", verdict=verdict),)
        votes_pass = verdict
    elif policy.voters:
        vote_list, votes_pass, vote_diags = vote_equivalence(original, candidate, policy.voters)
        votes = tuple(vote_list)
        diagnostics.extend(vote_diags)
    # Both earlier stages passed, or the function returned already.
    return VerificationReport(syntax_ok, compile_ok, votes, votes_pass, tuple(diagnostics))
