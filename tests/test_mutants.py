"""The mutation table stays applicable: every snippet of mutation/mutants.py
occurs exactly once in its file, and the runner fails on a mutant that its
named tests do not kill.  The table itself runs outside this suite, through
`python mutation/run.py`."""

import importlib.util
import sys
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


def test_runner_fails_on_a_surviving_mutant(monkeypatch, capsys):
    # a real mutant whose named test cannot kill it: a weakened table row
    row = next(m for m in mutants.MUTANTS if m.snippet == "_MODULUS_ASKS = 2")
    weakened = row._replace(tests=("tests/test_numerics.py::test_decode_point_total",))
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py prepends mutation/
    monkeypatch.setitem(sys.modules, "mutants", mutants)
    spec = importlib.util.spec_from_file_location("mutation_run", ROOT / "mutation" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    monkeypatch.setattr(run, "MUTANTS", (weakened,))
    assert run.main() == 1
    out = capsys.readouterr().out
    assert f"{weakened.name}: SURVIVED" in out
    assert "0 of 1 mutants killed" in out
