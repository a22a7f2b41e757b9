"""The mutant catalogue's runner (``pytest -m mutants``) and its tier-1
guard.

Each row of :data:`tests.mutants.catalogue.MUTANTS` is planted in a
copy of ``src/`` and the tests it names are run against that copy in a
subprocess, under the ``triage`` Hypothesis profile (no shrink phase,
first failure only; the examples are the committed ones).  The row
holds only if pytest exits 1 and lists every named id as FAILED: exit 2,
4 or 5 (interrupted, usage error, nothing collected) is a broken row,
not a catch.

The tier-1 guard checks, without running anything, that every row's old
text still occurs exactly once in its file: a refactor that moves the
code must move its row with it.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tests.mutants.catalogue import MUTANTS

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"


def test_every_row_plants_text_that_occurs_once():
    assert len({row.id for row in MUTANTS}) == len(MUTANTS)
    for row in MUTANTS:
        text = (SRC / row.file).read_text()
        assert text.count(row.old) == 1, (row.id, row.file, text.count(row.old))
        assert row.old != row.new and row.fails, row.id


def test_every_retired_code_test_is_a_must_fail_id():
    """The tests that replaced RP502-RP504 each fail when the defect
    they stand for is planted."""
    source = (ROOT / "tests/analysis/test_codegen_audit.py").read_text()
    retired = {
        line[len("def "):line.index("(")]
        for line in source.splitlines()
        if line.startswith(("def test_rp502", "def test_rp503", "def test_rp504"))
    }
    assert len(retired) == 16
    named = {test.split("::")[-1].split("[")[0] for row in MUTANTS for test in row.fails}
    assert retired <= named, sorted(retired - named)


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
    assert text.count(row.old) == 1, (row.id, text.count(row.old))
    target.write_text(text.replace(row.old, row.new))
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
