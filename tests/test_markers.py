"""The opt-in that keeps paper-scale runs out of the default test run."""

import os

import pytest
from conftest import PAPER_SCALE_VAR, pytest_collection_modifyitems


class _Item:
    def __init__(self, *markers):
        self.keywords = dict.fromkeys(markers, True)
        self.added = []

    def add_marker(self, marker):
        self.added.append(marker)


@pytest.mark.parametrize("value, skipped", [(None, True), ("0", True), ("1", False)])
def test_paper_scale_items_are_skipped_unless_opted_in(monkeypatch, value, skipped):
    if value is None:
        monkeypatch.delenv(PAPER_SCALE_VAR, raising=False)
    else:
        monkeypatch.setenv(PAPER_SCALE_VAR, value)
    paper, other, plain = _Item("paper_scale"), _Item("other"), _Item()
    pytest_collection_modifyitems(None, [paper, other, plain])
    assert [m.name for m in paper.added] == (["skip"] if skipped else [])
    assert other.added == [] and plain.added == []


@pytest.mark.paper_scale
def test_a_paper_scale_test_runs_only_when_opted_in():
    assert os.environ.get(PAPER_SCALE_VAR) == "1"
