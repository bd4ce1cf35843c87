"""The mutation table stays applicable: every snippet of mutation/mutants.py
occurs exactly once in its file.  The mutants themselves run outside this
suite, through `python mutation/run.py`."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "mutation" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_snippet_occurs_exactly_once(mutant):
    assert (ROOT / mutant.file).read_text().count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet
    assert mutant.tests
    for test in mutant.tests:
        path, _, name = test.partition("::")
        assert (ROOT / path).is_file()
        assert not name or f"\ndef {name}(" in (ROOT / path).read_text(), test


def test_mutant_names_are_distinct():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names) >= 30
