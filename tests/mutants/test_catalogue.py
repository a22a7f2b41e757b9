"""The mutant catalogue's runner (``pytest -m mutants``) and its tier-1
guard.

Each row of :data:`tests.mutants.catalogue.MUTANTS` is planted in a
copy of ``src/`` and the tests it names are run against that copy in a
subprocess, under the ``triage`` Hypothesis profile (no shrink phase,
first failure only; the examples are the committed ones).  The row
holds only if pytest exits 1 and lists every named id as FAILED: exit 2,
4 or 5 (interrupted, usage error, nothing collected) is a broken row,
not a catch.

The tier-1 guards check, without running anything, that every row's old
text still occurs exactly once in its file (a refactor that moves the
code must move its row with it), and that every test that kept the id of
a retired code is a must-fail id of a row planting that code's defect.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import CODES
from tests.mutants.catalogue import MUTANTS, RETIRED

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"


def test_every_row_plants_text_that_occurs_once():
    assert len({row.id for row in MUTANTS}) == len(MUTANTS)
    for row in MUTANTS:
        text = (SRC / row.file).read_text()
        for old, new in row.edits():
            assert text.count(old) == 1, (row.id, row.file, text.count(old))
            assert old != new, row.id
        assert row.fails, row.id


NAMED = re.compile(r'^def (test_rp(\d{3})\w*)\(|id="(\w+-(RP\d{3}))"', re.M)
TEST_DEF = re.compile(r"^def (test_\w+)\(", re.M)


def _kept_ids():
    """``(code, test id)`` for every test under tests/ whose id names a
    retired code: a function ``test_rpNNN_*``, or a parameter id ending
    in ``-RPNNN`` (of the test function defined after it)."""
    for path in sorted((ROOT / "tests").rglob("test_*.py")):
        text = path.read_text()
        name = path.relative_to(ROOT).as_posix()
        for match in NAMED.finditer(text):
            if match[1]:
                code, test = f"RP{match[2]}", match[1]
            else:
                code = match[4]
                test = f"{TEST_DEF.search(text, match.end())[1]}[{match[3]}]"
            if code not in CODES:
                yield code, f"{name}::{test}"


def test_every_retired_code_test_is_a_must_fail_id():
    """Each test that kept the id of a retired code fails when a row
    planting that code's defect is planted; the ids that do not name the
    code are listed with its rows."""
    rows = {row.id: row for row in MUTANTS}
    kept = set(_kept_ids())
    for code, (_, unnamed) in RETIRED.items():
        assert code not in CODES, code
        kept.update((code, test) for test in unnamed)
    assert {code for code, _ in kept} == set(RETIRED)
    for code, test in sorted(kept):
        fails = {failing for row_id in RETIRED[code][0] for failing in rows[row_id].fails}
        assert test in fails, (code, test)


def _checkout(tmp_path, row):
    """A tree whose ``src/`` is a patched copy and whose every other
    top-level entry links to this checkout's."""
    for entry in ROOT.iterdir():
        if entry.name != "src" and not entry.name.startswith("."):
            (tmp_path / entry.name).symlink_to(entry)
    shutil.copytree(SRC, tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    target = tmp_path / "src" / row.file
    text = target.read_text()
    for old, new in row.edits():
        assert text.count(old) == 1, (row.id, text.count(old))
        text = text.replace(old, new)
    target.write_text(text)
    return tmp_path


@pytest.mark.mutants
@pytest.mark.parametrize("row", MUTANTS, ids=[row.id for row in MUTANTS])
def test_the_named_tests_catch_the_mutant(row, tmp_path):
    tree = _checkout(tmp_path, row)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
         "--hypothesis-profile=triage", *row.fails],
        cwd=tree, env=env, capture_output=True, text=True, timeout=300,
    )
    report = result.stdout + result.stderr
    assert result.returncode == 1, f"{row.id}: exit {result.returncode}\n{report[-3000:]}"
    failed = {line.split()[1] for line in report.splitlines() if line.startswith("FAILED ")}
    missed = [test for test in row.fails if test not in failed]
    assert not missed, f"{row.id}: {missed} passed\n{report[-3000:]}"
