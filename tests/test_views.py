"""Incremental Python views and the syntax stage that reads them."""

import subprocess
import sys

import pytest

from codeperturb import analysis
from codeperturb.core import CodeSample, Language
from codeperturb.verify import syntax_check

from .view_differential import HAZARDS, check_all, check_pair, renamed_copies


def test_incremental_views_equal_full_parses():
    """Rule chains, hazard edits and random edits (view_differential)."""
    counts = check_all()
    assert all(count["region"] for count in counts.values()), counts


# An edit whose statement compiles alone while the module does not: the
# view is built from the original's, and the verdict must not be.
@pytest.mark.parametrize("name", ["global after assignment", "global of an annotated name",
                                  "global kept, assignment added", "module-level return"])
@pytest.mark.parametrize("settled", [False, True])
def test_a_whole_module_compile_error_is_not_missed_by_a_region_view(name, settled):
    original, edited = HAZARDS[name]
    assert check_pair(original, edited, settled) == "region"
    assert not syntax_check(CodeSample("s", Language.PYTHON, edited))[0]


def test_a_view_keeps_its_base_only_until_its_verdict():
    text = renamed_copies(1000)
    analysis._views.clear()
    original = analysis.python_view(text)
    first = analysis.python_view(text.replace("total", "tally", 1))
    second = analysis.python_view(first.text.replace("return", "return  ", 1))
    assert first.base is original and first.fresh is not first.tree.body
    # first is unsettled and has a base of its own, so second must compile whole.
    assert second.base is None and second.fresh is not second.tree.body
    assert syntax_check(CodeSample("s", Language.PYTHON, first.text)) == (True, [])
    assert first.base is None and first.compiles and original.compiles
    assert len(analysis._views) == analysis.PYTHON_VIEWS == 2


# Candidates are checked as `python` runs them, with no future feature of
# the checking module: its postponed annotations would reject the first two
# and accept the third.
FUTURE_FREE = [
    "x: (y := 1) = 2\nprint(x)\n",
    "def f():\n    x: (await y) = 1\n",
    "x: [i async for i in y]\n",
]


@pytest.mark.parametrize("text", FUTURE_FREE)
def test_syntax_check_judges_as_python_runs(text, tmp_path):
    path = tmp_path / "candidate.py"
    path.write_text(text)
    runs = subprocess.run([sys.executable, str(path)], capture_output=True, timeout=60).returncode == 0
    assert syntax_check(CodeSample("candidate.py", Language.PYTHON, text))[0] is runs
