"""The paper's tables, pinned: every row of benchmarks/paper.py must
recompute to exactly the value EXPERIMENTS.json holds (the model is
deterministic) and lie within the paper's tolerance, and EXPERIMENTS.md
must be what the JSON renders to.  Slow rows carry the ``paper`` marker,
which tier-1 deselects; ``pytest -m paper`` runs them."""

import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.sim.cost import Costs

ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location("paper", ROOT / "benchmarks" / "paper.py")
paper = sys.modules["paper"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paper)
PINNED = json.loads(paper.JSON_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("row", [
    pytest.param(row, id=row.id, marks=[pytest.mark.paper] if row.slow else [])
    for row in paper.ROWS.values()
])
def test_row_is_pinned_and_within_tolerance(row):
    paper.check(row, PINNED)


def test_the_json_holds_exactly_the_rows():
    assert list(PINNED) == list(paper.ROWS)


def test_experiments_md_is_rendered_from_the_json():
    text = paper.MD_PATH.read_text(encoding="utf-8")
    assert paper.render(text, PINNED) == text


def test_a_drifted_cost_constant_fails_naming_the_row_and_both_values(monkeypatch):
    monkeypatch.setattr(Costs, "FLOW_LABEL_HASH", Costs.FLOW_LABEL_HASH + 2)
    with pytest.raises(AssertionError,
                       match=r"E4\.label_hash: measured 11\.0, EXPERIMENTS\.json pins 9\.0"):
        paper.check(paper.ROWS["E4.label_hash"], PINNED)


def test_a_missed_tolerance_fails_naming_the_row_and_both_values():
    row = dataclasses.replace(paper.ROWS["E2.v4.total"], tolerance=(24, 24))
    with pytest.raises(AssertionError, match=r"E2\.v4\.total: measured 20 outside = 24"):
        paper.check(row, PINNED)
