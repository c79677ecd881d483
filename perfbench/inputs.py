"""Seeded input generation for the benchmark workloads.

Everything the program under test sees is built here from the fixture
corpus in ``tests/fixtures`` and the benchmark seed: the same seed gives
byte-identical corpus files.
"""

from __future__ import annotations

import ast
import copy
import io
import json
import random
import tokenize
from pathlib import Path

# Methods with a rule for both Python and C, by category. DECOMPOSITION has
# none (extract_if is Python/Go only), so oneshot-exec covers five categories.
# Within a category the seed picks among methods that reach verification on
# about as many fixtures, so that the amount of work does not depend on the
# seed: div_composed_if is left out because it applies to far fewer fixtures
# than the other CONDITION methods. The table is fixed here rather than read
# from the catalog so that a later change to how rule support is declared
# cannot change the workload.
ONESHOT_METHODS = {
    "BASIC": (
        "insert_junk_function",
        "insert_junk_loop",
        "insert_variables",
        "statement_wrapping",
        "function_rename",
        "variables_rename",
    ),
    "CONDITION": ("div_if_else", "if_continue_to_if_else"),
    "LOOP": ("for_while_transformation",),
    "LOGIC": ("equi_boolean_logic", "swap_boolean_expression"),
    "ARITHMETIC": ("equi_arithmetic_expression", "modify_operations"),
}


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def load_fixtures(root: Path) -> list[dict]:
    """The executable fixture corpus as CLI corpus records, in manifest order."""
    fixtures = root / "tests" / "fixtures"
    manifest = json.loads((fixtures / "manifest.json").read_text(encoding="utf-8"))
    return [
        {
            "id": entry["id"],
            "language": entry["language"],
            "content": (fixtures / entry["path"]).read_text(encoding="utf-8"),
            "input_suite": list(entry["inputs"]),
        }
        for entry in manifest["programs"]
    ]


def write_corpus(path: Path, records: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def oneshot_methods(rng: random.Random) -> list[str]:
    return [rng.choice(methods) for methods in ONESHOT_METHODS.values()]


def token_count(text: str) -> int:
    """Lexical tokens of a Python module, layout tokens excluded."""
    skip = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.COMMENT, tokenize.ENDMARKER, tokenize.ENCODING}
    return sum(1 for t in tokenize.generate_tokens(io.StringIO(text).readline) if t.type not in skip)


_HEADER = "import sys\n"


class _Rename(ast.NodeTransformer):
    def __init__(self, mapping: dict[str, str]):
        self.mapping = mapping

    def visit_FunctionDef(self, node):
        node.name = self.mapping.get(node.name, node.name)
        return self.generic_visit(node)

    def visit_Name(self, node):
        node.id = self.mapping.get(node.id, node.id)
        return node


def _function_groups(records: list[dict]) -> list[list[ast.FunctionDef]]:
    """Top-level function definitions of each Python fixture."""
    groups = []
    for record in records:
        if record["language"] != "python":
            continue
        tree = ast.parse(record["content"])
        groups.append([n for n in tree.body if isinstance(n, ast.FunctionDef)])
    return groups


def module_chunks(groups: list[list[ast.FunctionDef]], rng: random.Random,
                  target_tokens: int) -> list[list[str]]:
    """Renamed copies of fixture function groups, about target_tokens
    lexical tokens in all: one list of function sources per copy.

    Copies cycle through a seeded permutation of the groups, so every group
    appears as often as the others (give or take one) and the module's
    repetition structure, which drives the cost of tiling, is the same for
    every seed."""
    order = groups[:]
    rng.shuffle(order)
    chunks = []
    tokens = token_count(_HEADER)
    while tokens < target_tokens:
        group = order[len(chunks) % len(order)]
        mapping = {fn.name: f"{fn.name}_{len(chunks)}" for fn in group}
        chunks.append([ast.unparse(_Rename(mapping).visit(copy.deepcopy(fn))) for fn in group])
        tokens += sum(token_count(source) for source in chunks[-1])
    return chunks


def _join(chunks: list[list[str]]) -> str:
    return _HEADER + "".join(f"\n\n{source}\n" for chunk in chunks for source in chunk)


def large_corpus(records: list[dict], rng: random.Random, targets: tuple[int, ...]) -> list[dict]:
    groups = _function_groups(records)
    return [
        {"id": f"large_{i}_{target}.py", "language": "python",
         "content": _join(module_chunks(groups, rng, target))}
        for i, target in enumerate(targets)
    ]


def curve_pair(records: list[dict], rng: random.Random, target_tokens: int) -> tuple[str, str]:
    """An (original, candidate) pair for the similarity scaling curve. The
    candidate holds the original's copies in a shuffled order, each with its
    functions reversed, so the two share long token runs but differ in
    layout even when there is a single copy."""
    chunks = module_chunks(_function_groups(records), rng, target_tokens)
    candidate = [chunk[::-1] for chunk in chunks]
    rng.shuffle(candidate)
    return _join(chunks), _join(candidate)
