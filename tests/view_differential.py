"""Differential check of incremental Python views against full parses.

analysis.python_view builds a text's view from a kept view of another
text, re-parsing only the top-level statements the edit touched, and
verify.syntax_check then compiles only those statements. This module
checks both against the plain full parse and full compile of the same
text, over seeded rule chains on the Python fixtures and on modules of 1k,
2k and 4k tokens, over hand-written hazard edits and over seeded random
character edits. It needs only the standard library and the package, so
that it runs under interpreters without pytest:

    python3 tests/view_differential.py

prints what it checked and exits 1 on the first mismatch. The tier-1
suite runs the same checks (tests/test_views.py).
"""

from __future__ import annotations

import ast
import contextlib
import json
import random
import sys
import warnings
from pathlib import Path

TESTS = Path(__file__).resolve().parent

if __name__ == "__main__":
    sys.path.insert(0, str(TESTS.parent / "src"))

from codeperturb import analysis  # noqa: E402
from codeperturb.core import CodeSample, Language  # noqa: E402
from codeperturb.errors import CodePerturbError  # noqa: E402
from codeperturb.similarity import tokenize  # noqa: E402
from codeperturb.transform import RULES  # noqa: E402
from codeperturb.verify import syntax_check  # noqa: E402

SIZES = (1000, 2000, 4000)  # normalized tokens of the renamed-copies modules
FILLER = "".join(f"f{k} = {k}\n" for k in range(12))  # keeps a hazard's edit under half its module

# (original, edited) pairs whose edit sits where a region could go wrong.
HAZARDS = {
    # Each passes a compile of its own statement and fails the full compile.
    "global after assignment": ("x = 1\ny = 2\n" + FILLER, "x = 1\nglobal x\n" + FILLER),
    "global of an annotated name": (
        "x: int = 1\nif True:\n    pass\n" + FILLER, "x: int = 1\nif True:\n    global x\n" + FILLER,
    ),
    "global kept, assignment added": ("y = 1\nglobal x\n" + FILLER, "x = 1\nglobal x\n" + FILLER),
    # A future import changes how the other statements parse and compile.
    "future annotations": (
        "from __future__ import annotations\nx: int = 2\n" + FILLER,
        "from __future__ import annotations\nx: (y := 1) = 2\n" + FILLER,
    ),
    "future barry": (
        "from __future__ import barry_as_FLUFL\nx = 1 <> 2\n" + FILLER,
        "from __future__ import barry_as_FLUFL\nx = 1 != 2\n" + FILLER,
    ),
    "future removed": (
        "from __future__ import annotations\nx: [i async for i in y]\n" + FILLER,
        "\nx: [i async for i in y]\n" + FILLER,
    ),
    # ';' joins statements on one line.
    "semicolon joined edit": ("a = 1; b = 2\n" + FILLER, "a = 1; b = 3\n" + FILLER),
    "semicolon joined after edit": (FILLER + "a = 1; b = 2\n" + FILLER, FILLER + "a = 5; b = 2\n" + FILLER),
    "semicolon added": (FILLER + "a = 1\nb = 2\n" + FILLER, FILLER + "a = 1; c = 3\nb = 2\n" + FILLER),
    "semicolon trailing": (FILLER + "a = 1;\nb = 2\n" + FILLER, FILLER + "a = 1;\nb = 3\n" + FILLER),
    # Decorators belong to their def.
    "decorator edited": (
        FILLER + "@dec\ndef f():\n    return 1\n" + FILLER, FILLER + "@dek\ndef f():\n    return 1\n" + FILLER,
    ),
    "decorated body edited": (
        FILLER + "@dec\n@dec2(1)\ndef f():\n    return 1\n" + FILLER,
        FILLER + "@dec\n@dec2(1)\ndef f():\n    return 2\n" + FILLER,
    ),
    "decorator split by a continuation": (
        FILLER + "@\\\ndec\ndef f():\n    return 1\n" + FILLER,
        FILLER + "@\\\ndec\ndef f():\n    return 2\n" + FILLER,
    ),
    "decorator removed": (
        FILLER + "@dec\ndef f():\n    return 1\n" + FILLER, FILLER + "\ndef f():\n    return 1\n" + FILLER,
    ),
    "decorator left without def": (FILLER + "@dec\ndef f():\n    return 1\n" + FILLER, FILLER + "@dec\n" + FILLER),
    # Line ends.
    "crlf": (FILLER.replace("\n", "\r\n"), FILLER.replace("\n", "\r\n").replace("f3 = 3", "f3 = 4")),
    "lone cr": (FILLER.replace("\n", "\r"), FILLER.replace("\n", "\r").replace("f3 = 3", "f3 = 4")),
    "cr becomes crlf at a statement start": (
        FILLER.replace("\n", "\r"), FILLER.replace("\n", "\r").replace("\rf4", "\r\nf4"),
    ),
    "crlf becomes cr": (FILLER.replace("\n", "\r\n"), FILLER.replace("\n", "\r\n").replace("3\r\n", "3\r")),
    "newline becomes crlf": (FILLER, FILLER.replace("f3 = 3\n", "f3 = 3\r\n")),
    "newline joined away": (FILLER, FILLER.replace("f3 = 3\n", "f3 = 3 ")),
    # Non-ASCII lines: ast columns are UTF-8 bytes.
    "non-ascii": (FILLER + "s = 'é' + 'ü'\nt = 'ß'\n" + FILLER, FILLER + "s = 'é' + 'üü'\nt = 'ß'\n" + FILLER),
    "non-ascii moved": (FILLER + "s = 'é'\n" + FILLER, FILLER + "s = 'é'\nu = 'ø'\n" + FILLER),
    # An edit that leaves something open at the end of its region.
    "open bracket": (FILLER + "x = (1)\ny = 2\n" + FILLER, FILLER + "x = (1\ny = 2\n" + FILLER),
    "open bracket closed later": (FILLER + "x = 1\ny = [2]\n" + FILLER, FILLER + "x = [1,\ny ,2]\n" + FILLER),
    "open string": (FILLER + "x = 'a'\ny = 2\n" + FILLER, FILLER + "x = '''a\ny = 2\n" + FILLER + "'''\n"),
    "open continuation": (FILLER + "x = 1\ny = 2\n" + FILLER, FILLER + "x = 1 \\\ny = 2\n" + FILLER),
    "open continuation at a crlf": (
        (FILLER + "x = 1\ny = 2\n" + FILLER).replace("\n", "\r\n"),
        (FILLER + "x = 1 \\\ny = 2\n" + FILLER).replace("\n", "\r\n"),
    ),
    "open continuation at a cr": (
        (FILLER + "x = 1\ny = 2\n" + FILLER).replace("\n", "\r"),
        (FILLER + "x = 1 \\\ny = 2\n" + FILLER).replace("\n", "\r"),
    ),
    "continuation joins a blank line": (
        FILLER + "x = 1\n\ny = 2\n" + FILLER, FILLER + "x = 1 \\\n\ny = 2\n" + FILLER,
    ),
    "continuation before a statement": (
        FILLER + "x = 1\n\\\ny = 2\n" + FILLER, FILLER + "x = 3\n\\\ny = 2\n" + FILLER,
    ),
    "indented after edit": (FILLER + "x = 1\ny = 2\n" + FILLER, FILLER + "x = 1\n y = 2\n" + FILLER),
    "else orphaned": (
        FILLER + "if a:\n    x = 1\nelse:\n    x = 2\n" + FILLER, FILLER + "if a:\n    x = 1\nx = 0\nelse:\n    x = 2\n" + FILLER,
    ),
    # f-strings, which Python 3.12 parses as tokens of their own (PEP 701).
    "f-string edited": (
        FILLER + 'a = 1\ns = f"{a!r:>{a}} {a=}"\n' + FILLER, FILLER + 'a = 1\ns = f"{a!s:<{a}} {a=}"\n' + FILLER,
    ),
    "f-string with its own quotes": (FILLER + 's = f"{1}"\n' + FILLER, FILLER + 's = f"{"x"}"\n' + FILLER),
    "f-string over lines": (
        FILLER + 's = f"""{\n1}"""\nt = 1\n' + FILLER, FILLER + 's = f"""{\n1}"""\nt = 2\n' + FILLER,
    ),
    # A compile-only error outside the edit.
    "module-level return": ("return 1\n" + FILLER, "return 1\n" + FILLER.replace("f7 = 7", "f7 = 8")),
    "nonlocal at module level": (FILLER + "nonlocal q\n", FILLER.replace("f2 = 2", "f2 = 3") + "nonlocal q\n"),
    "error added": (FILLER, FILLER.replace("f5 = 5", "return 5")),
    "error mended": (FILLER.replace("f5 = 5", "return 5"), FILLER),
}

# What the random edits insert.
PIECES = ["\n", "\r", "\r\n", "\\", ";", "(", ")", "[", "]", "'", '"', '"""', "#", "@", ":", " ", "    ", "\t",
          "x", "1", "é", "global x\n", "return 2\n", "nonlocal y\n", "yield\n", "def g():\n", "@d\n",
          "from __future__ import annotations\n", "else:\n", "pass\n", "x: (y := 1) = 2\n"]


class Mismatch(AssertionError):
    pass


def load_python_fixtures() -> list[str]:
    manifest = json.loads((TESTS / "fixtures" / "manifest.json").read_text())
    return [
        (TESTS / "fixtures" / record["path"]).read_text()
        for record in manifest["programs"] if Language.parse(record["language"]) is Language.PYTHON
    ]


def renamed_copies(min_tokens: int) -> str:
    """A module of at least min_tokens tokens: copies of the Python fixtures'
    top-level functions, each copy's functions renamed apart."""
    groups = [[n for n in ast.parse(text).body if isinstance(n, ast.FunctionDef)] for text in load_python_fixtures()]
    chunks, copy = [], 0
    while not chunks or len(tokenize(CodeSample("m", Language.PYTHON, "\n\n\n".join(chunks)))) < min_tokens:
        for k, group in enumerate(groups):
            names = {fn.name: f"{fn.name}_{k}_{copy}" for fn in group}
            for fn in group:
                fn = ast.parse(ast.unparse(fn)).body[0]
                for node in ast.walk(fn):
                    if isinstance(node, ast.FunctionDef) and node.name in names:
                        node.name = names[node.name]
                    elif isinstance(node, ast.Name) and node.id in names:
                        node.id = names[node.id]
                chunks.append(ast.unparse(fn))
        copy += 1
    return "\n\n\n".join(chunks) + "\n"


def _error(exc: SyntaxError) -> tuple:
    return type(exc), exc.msg, exc.lineno, exc.offset, exc.end_lineno, exc.end_offset


def line_starts(text: str) -> list[int]:
    """Where ast starts each line (after "\r\n", "\r" or "\n"), and len(text)."""
    ends = [k + 1 for k, c in enumerate(text) if c == "\n" or c == "\r" and text[k + 1 : k + 2] != "\n"]
    return [0, *ends, len(text)]


def full_verdict(text: str) -> tuple[bool, list[str]]:
    """syntax_check's verdict and diagnostics, from a full parse and a full
    compile of text."""
    try:
        compile(ast.parse(text), "<sample>", "exec", dont_inherit=True)
    except SyntaxError as exc:
        return False, [f"syntax error at line {exc.lineno}, offset {exc.offset}: {exc.msg}"]
    return True, []


def check(text: str) -> str:
    """Build text's view through python_view, from whatever views it keeps,
    and check it and syntax_check's verdict against a full parse and full
    compile. 'region' or 'whole' names how the view was built, 'error' a
    text that does not parse; raises Mismatch on any difference."""
    try:
        reference = ast.parse(text)
    except SyntaxError as exc:
        try:
            analysis.python_view(text)
        except SyntaxError as got:
            if _error(got) != _error(exc):
                raise Mismatch(f"{text!r}: {_error(got)} != {_error(exc)}") from None
            return "error"
        raise Mismatch(f"{text!r} does not parse, yet its view was built") from None
    view = analysis.python_view(text)
    built = "whole" if view.fresh is view.tree.body else "region"
    if ast.dump(view.tree, include_attributes=True) != ast.dump(reference, include_attributes=True):
        raise Mismatch(f"{built} tree of {text!r} differs from the full parse")
    walked = list(ast.walk(view.tree))  # nodes compare by identity
    if view.nodes != walked:
        raise Mismatch(f"{built} nodes of {text!r} are out of ast.walk order")
    if view.functions != [n for n in walked if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]:
        raise Mismatch(f"{built} functions of {text!r} differ")
    if view.offsets != line_starts(text):
        raise Mismatch(f"{built} offsets of {text!r} differ")
    verdict = syntax_check(CodeSample("<sample>", Language.PYTHON, text))
    if verdict != full_verdict(text):
        raise Mismatch(f"{built} view of {text!r}: syntax_check says {verdict}, a full compile {full_verdict(text)}")
    if view.base is not None:
        raise Mismatch(f"the view of {text!r} keeps its base after its verdict")
    return built


def check_pair(original: str, edited: str, settled: bool) -> str:
    """check(edited) with only original's view kept, its compile verdict
    known when settled (the optimizer never syntax-checks an original)."""
    analysis._views.clear()
    with contextlib.suppress(SyntaxError):
        analysis.python_view(original)
    if settled:
        syntax_check(CodeSample("<sample>", Language.PYTHON, original))
    return check(edited)


def rule_chain(text: str, seed: int, steps: int) -> list[str]:
    """Seeded rule rewrites from text, each new text checked; a rewrite is
    kept as the next base half the time, and the kept text's verdict is
    settled half the time, as the optimizer's accepts and rejects do."""
    analysis._views.clear()
    rng = random.Random(seed)
    rules = sorted(RULES[Language.PYTHON].items())
    built = [check(text)]
    for _ in range(steps):
        mid, rewrite = rng.choice(rules)
        try:
            new_text, _ = rewrite(text, random.Random(rng.randrange(2**32)))
        except CodePerturbError:
            continue
        if rng.random() < 0.5:
            syntax_check(CodeSample("<sample>", Language.PYTHON, text))
        built.append(check(new_text))
        if rng.random() < 0.5:
            text = new_text
    return built


def random_edits(texts: list[str], seed: int, count: int) -> list[str]:
    """Seeded random edits: each inserts, deletes or replaces a few
    characters at a line start, a line end or anywhere in a kept text."""
    rng = random.Random(seed)
    built = []
    for _ in range(count):
        original = rng.choice(texts)
        starts = [0] + [k + 1 for k, c in enumerate(original) if c in "\r\n"]
        at = rng.choice([rng.randrange(len(original) + 1), rng.choice(starts), max(rng.choice(starts) - 1, 0)])
        cut = rng.choice([0, 0, 1, 2, rng.randrange(1, 40)])
        edited = original[:at] + rng.choice(["", *PIECES]) + original[at + cut :]
        if edited != original:
            built.append(check_pair(original, edited, settled=rng.random() < 0.5))
    return built


def check_all(out=None) -> dict[str, dict[str, int]]:
    """Every check of this module; counts of what each built."""
    warnings.simplefilter("ignore", SyntaxWarning)  # what random edits make of "1" before a name
    fixtures = load_python_fixtures()
    large = [renamed_copies(size) for size in SIZES]
    counts = {}

    def tally(name: str, built: list[str]) -> None:
        counts[name] = {kind: built.count(kind) for kind in ("region", "whole", "error")}
        if out is not None:
            print(name, counts[name], file=out)

    tally("fixture chains", [b for k, text in enumerate(fixtures) for b in rule_chain(text, k, 12)])
    for size, text in zip(SIZES, large):
        tally(f"{size}-token chain", rule_chain(text, size, 24))
    hazards = []
    for original, edited in HAZARDS.values():
        hazards += [check_pair(original, edited, settled) for settled in (False, True)]
    tally("hazards", hazards)
    tally("random edits", random_edits([*fixtures, *(o for o, _ in HAZARDS.values())], 0, 1500))
    return counts


if __name__ == "__main__":
    try:
        check_all(sys.stdout)
    except Mismatch as exc:
        print(f"MISMATCH under Python {sys.version.split()[0]}: {exc}")
        sys.exit(1)
    print(f"views agree under Python {sys.version.split()[0]}")
