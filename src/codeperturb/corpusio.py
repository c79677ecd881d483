"""Line-delimited corpus, task, and record I/O.

Corpus records are JSON objects {id, language, content}, one per line.
Lines end at "\n" only: JSON written with ensure_ascii=False holds U+2028,
U+2029 and U+0085 unescaped, and str.splitlines() would end a line there.
Optional per-record fields: input_suite (list of stdin strings used by the
execution oracle; absent, null or [] when there is none).
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

from .core import CodeSample, Language
from .errors import ConfigError


def read_corpus(path: str | Path) -> list[tuple[CodeSample, tuple[str, ...]]]:
    """(sample, input suite) pairs in file order; the suite is () for a
    record without one. ConfigError names the line of a malformed record,
    and of a record whose id or safe_name an earlier record has: the
    sample's trace and reply directory are named by it."""
    samples = []
    seen: dict[str, tuple[int, str]] = {}  # safe_name -> (line, id)
    try:
        lines = Path(path).read_text(encoding="utf-8").split("\n")
    except OSError as exc:
        raise ConfigError(f"cannot read corpus {path}: {exc}") from exc
    for n, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            sample_id, language, text = str(record["id"]), record["language"], record["content"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ConfigError(f"{path}:{n}: malformed corpus record: {exc}") from exc
        suite = record.get("input_suite")
        if not isinstance(language, str) or not isinstance(text, str):
            raise ConfigError(f"{path}:{n}: language and content must be strings")
        if suite is not None and not (isinstance(suite, list) and all(isinstance(s, str) for s in suite)):
            raise ConfigError(f"{path}:{n}: input_suite must be a list of strings")
        try:
            sample = CodeSample(id=sample_id, language=Language.parse(language), text=text)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{n}: {exc}") from exc
        name = safe_name(sample_id)
        if name in seen:
            line, other = seen[name]
            clash = "repeats" if other == sample_id else f"shares the file name {name!r} with"
            raise ConfigError(f"{path}:{n}: sample id {sample_id!r} {clash} sample id {other!r} on line {line}")
        seen[name] = (n, sample_id)
        samples.append((sample, tuple(suite or ())))
    return samples


def write_jsonl(path: str | Path, records) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def read_jsonl(path: str | Path, build=dict) -> list:
    """build(record) of each JSON object in `path`, in file order. A
    ConfigError names path:line of a line that is not a JSON object, or
    whose object `build` cannot read: a key is missing (KeyError), or a
    value has the wrong type or form (TypeError, ValueError, ConfigError)."""
    out = []
    for n, line in enumerate(Path(path).read_text(encoding="utf-8").split("\n"), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise TypeError("not a JSON object")
            out.append(build(record))
        except KeyError as exc:
            raise ConfigError(f"{path}:{n}: malformed record: missing {exc}") from exc
        except (ValueError, TypeError, ConfigError) as exc:  # json.JSONDecodeError is a ValueError
            raise ConfigError(f"{path}:{n}: malformed record: {exc}") from exc
    return out


def read_completions(path: str | Path) -> dict:
    """task_id -> completion text (None for none), from {task_id, completion} records."""

    def completion(record: dict) -> tuple[str, str | None]:
        text = record["completion"]
        if text is not None and not isinstance(text, str):
            raise TypeError("completion must be a string or null")
        return str(record["task_id"]), text

    return dict(read_jsonl(path, completion))


def corpus_digest(samples) -> str:
    h = hashlib.sha256()
    for sample, _ in samples:
        h.update(sample.id.encode())
        h.update(b"\0")
        h.update(sample.text.encode())
        h.update(b"\0")
    return h.hexdigest()


def safe_name(sample_id: str) -> str:
    """A file name for a sample id: its characters outside [A-Za-z0-9._-]
    become "_" (trace files and per-sample replay directories)."""
    return re.sub(r"[^A-Za-z0-9._-]", "_", sample_id)
