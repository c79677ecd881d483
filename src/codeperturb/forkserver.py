"""A fork server for program runs: a warm interpreter that forks one child
per request, after AFL's fork server (Zalewski, "Fuzzing random programs
without execve()", 2014).

    python forkserver.py

It reads one JSON request per line on stdin and answers each with one JSON
line on stdout; end of input stops it. A request holds ``file`` (a Python
source, run in the child as ``__main__``) or ``argv`` (a command to
``execvp``), plus ``stdin`` and ``stdout`` (file paths), ``cwd`` and
``timeout`` (seconds); the child changes to ``cwd`` first, so relative
paths name files there. The reply is ``{"status": n}`` with n as
``subprocess`` reports it (negative: killed by signal -n),
``{"timeout": true}`` once the child outlived its timeout and its process
group was killed, or ``{"error": message}`` when the program could not be
started. At end of input the server leaves by ``os._exit(0)``: every reply
is flushed when written and no child outlives its request, so the
interpreter's teardown would only cost time.

Each child gets its own process group; limits on CPU time (timeout + 1 s),
address space and file size; and fds 0, 1 and 2 on the stdin file, the
stdout file and /dev/null. A Python source then runs in the child the way
``python file`` runs it: fresh std streams with the interpreter's
encodings, ``sys.argv`` and ``sys.path[0]`` for the file; ``SystemExit``
and uncaught exceptions give the interpreter's exit statuses; non-daemon
threads are joined, atexit handlers run and the std streams are flushed
(status 120 when that fails). The child then leaves by ``os._exit``, which
skips the interpreter's teardown of its modules (about 14 ms a run), so
output that only a file object's finalizer would flush is lost. Every
child inherits the server's hash seed.

Stdlib only and POSIX only; it imports everything up front, so a child
pays for no import.
"""

import atexit
import io
import json
import math
import os
import resource
import signal
import sys

MEMORY_LIMIT = 4 << 30
FILE_SIZE_LIMIT = 64 << 20


def cpu_limit(timeout: float) -> int:
    return math.ceil(timeout) + 1


def _limit(kind: int, value: int) -> None:
    hard = resource.getrlimit(kind)[1]
    if hard != resource.RLIM_INFINITY:
        value = min(value, hard)
    resource.setrlimit(kind, (value, value))


def _start(request: dict):
    """Set up the forked child. Execs a command; for a Python file returns
    its source."""
    os.setpgid(0, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)
    os.chdir(request["cwd"])
    _limit(resource.RLIMIT_CPU, cpu_limit(request["timeout"]))
    _limit(resource.RLIMIT_AS, MEMORY_LIMIT)
    _limit(resource.RLIMIT_FSIZE, FILE_SIZE_LIMIT)
    for fd, path, flags in (
        (0, request["stdin"], os.O_RDONLY),
        (1, request["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC),
        (2, os.devnull, os.O_WRONLY),
    ):
        opened = os.open(path, flags, 0o644)
        os.dup2(opened, fd)
        os.close(opened)
    if "argv" in request:
        # As subprocess does: the interpreter ignores these, a program must not.
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
        signal.signal(signal.SIGXFSZ, signal.SIG_DFL)
        os.execvp(request["argv"][0], request["argv"])
    with open(request["file"], "rb") as fh:
        return fh.read()


def _run_main(path: str, source: bytes) -> int:
    """Run `source` as ``python path`` runs the file; its exit status."""
    sys.argv[:] = [path]
    if not (sys.flags.isolated or getattr(sys.flags, "safe_path", False)):
        sys.path[0] = os.path.dirname(path)
    for fd, name in ((0, "stdin"), (1, "stdout"), (2, "stderr")):
        old = getattr(sys, name)
        unbuffered = isinstance(old.buffer, io.FileIO)  # python -u
        buffer = open(fd, "rb" if fd == 0 else "wb", buffering=0 if unbuffered else -1, closefd=False)
        getattr(buffer, "raw", buffer).name = f"<{name}>"
        stream = io.TextIOWrapper(
            buffer, encoding=old.encoding, errors=old.errors, newline="\n",
            line_buffering=old.line_buffering, write_through=old.write_through,
        )
        setattr(sys, name, stream)
        setattr(sys, f"__{name}__", stream)
    main = type(sys)("__main__")
    main.__file__ = path
    main.__cached__ = None
    main.__builtins__ = sys.modules["builtins"]
    sys.modules["__main__"] = main
    try:
        exec(compile(source, path, "exec", dont_inherit=True), vars(main))
        status = 0
    except SystemExit as exc:
        status = _exit_status(exc.code)
    except BaseException:  # the interpreter's top level: print it, status 1
        sys.excepthook(*sys.exc_info())
        status = 1
    if "threading" in sys.modules:
        sys.modules["threading"]._shutdown()
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None and not stream.closed:
                stream.flush()
        except Exception:
            status = 120
    return status


def _exit_status(code) -> int:
    """The interpreter's exit status for ``SystemExit(code)``."""
    if code is None:
        return 0
    if isinstance(code, int):
        return code & 0xFF
    try:
        print(code, file=sys.stderr)
    except Exception:
        pass
    return 1


def _child(request: dict, errors_w: int) -> int:
    """The forked child's exit status, unless it execs. A start-up failure
    goes to the server through `errors_w`."""
    try:
        source = _start(request)
    except BaseException as exc:  # the child exits with it below
        os.write(errors_w, f"{type(exc).__name__}: {exc}".encode("utf-8", "replace"))
        return 127
    os.close(errors_w)
    return _run_main(request["file"], source)


def _wait(pid: int, timeout: float, errors: int) -> dict:
    """The reply for child `pid`; its process group is killed once it
    outlives `timeout`."""
    expired = []

    def kill(signum, frame):
        expired.append(True)
        try:
            os.killpg(pid, signal.SIGKILL)
        except OSError:
            pass

    signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    with os.fdopen(errors, "rb") as fh:
        error = fh.read()
    _, status = os.waitpid(pid, 0)
    signal.setitimer(signal.ITIMER_REAL, 0)
    if error:
        return {"error": error.decode("utf-8", "replace")}
    if expired and os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL:
        return {"timeout": True}
    return {"status": os.waitstatus_to_exitcode(status)}


def serve() -> None:
    requests = os.fdopen(os.dup(0), "rb")
    replies = os.fdopen(os.dup(1), "wb")
    null = os.open(os.devnull, os.O_RDWR)
    os.dup2(null, 0)
    os.dup2(null, 1)
    os.close(null)
    for line in requests:
        request = json.loads(line)
        errors_r, errors_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            requests.close()
            replies.close()
            os.close(errors_r)
            status = 1
            try:
                status = _child(request, errors_w)
            finally:
                os._exit(status)  # never back into this loop
        os.close(errors_w)
        try:
            os.setpgid(pid, pid)
        except OSError:
            pass  # the child has set it already, or has exec'd
        replies.write(json.dumps(_wait(pid, request["timeout"], errors_r)).encode() + b"\n")
        replies.flush()
    os._exit(0)


if __name__ == "__main__":
    serve()
