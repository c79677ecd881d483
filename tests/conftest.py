import json
import shutil
from pathlib import Path

import pytest

from codeperturb.core import CodeSample, Language
from codeperturb.verify import ServerPool

FIXTURES = Path(__file__).parent / "fixtures"


def pytest_report_header(config):
    """Name the toolchains found, so a run says which outputs it builds and runs."""
    found = [name for name in ("gcc", "rustc", "go") if shutil.which(name)]
    lines = [f"toolchains: {', '.join(found) or 'none'}"]
    if "go" not in found:
        lines.append("go not found: Go rule outputs are checked by golden tests only")
    return lines


def load_fixture_corpus(languages=None):
    """The bundled executable corpus: (sample, input suite) pairs."""
    manifest = json.loads((FIXTURES / "manifest.json").read_text())
    out = []
    for record in manifest["programs"]:
        language = Language.parse(record["language"])
        if languages is not None and language not in languages:
            continue
        text = (FIXTURES / record["path"]).read_text()
        sample = CodeSample(id=record["id"], language=language, text=text)
        out.append((sample, tuple(record["inputs"])))
    return out


def write_corpus_jsonl(path, corpus):
    """Serialize (sample, input suite) pairs in the CLI's corpus format."""
    with open(path, "w", encoding="utf-8") as fh:
        for sample, suite in corpus:
            record = {
                "id": sample.id,
                "language": sample.language.value,
                "content": sample.text,
            }
            if suite:
                record["input_suite"] = list(suite)
            fh.write(json.dumps(record) + "\n")


@pytest.fixture
def servers():
    """The fork servers of the test's ProgramRunners, stopped when it ends."""
    pool = ServerPool()
    yield pool
    pool.stop()


@pytest.fixture
def fixture_corpus():
    return load_fixture_corpus()


@pytest.fixture
def python_corpus():
    return load_fixture_corpus(languages={Language.PYTHON})
