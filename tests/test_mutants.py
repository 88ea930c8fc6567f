"""The planted-fault catalogue (``tools/mutants.py``) cannot rot silently:
every entry still names text that occurs exactly once, and every test it
names still exists. Running the mutants themselves takes minutes, so it is
left to the tool."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_entry_plants_exactly_one_fault():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    for m in mutants.MUTANTS:
        assert mutants.occurrences(m) == 1, m.name
        assert m.new != m.old, m.name
        assert m.must_kill or m.why, m.name  # a survivor says why it may


def test_every_named_test_exists():
    for path in mutants.FAST_TESTS:
        assert (ROOT / path).is_file(), path
    for m in mutants.MUTANTS:
        if m.catcher:
            path, name = m.catcher.split("::")
            assert f"def {name}(" in (ROOT / path).read_text(encoding="utf-8"), m.name


def _fake_runs(monkeypatch, first_failure, catcher_fails):
    """Replace the test runs by canned outcomes: the unplanted tree passes,
    a planted one fails first at first_failure, and its catcher alone
    fails if catcher_fails. Returns the runs made, as (entry, tests)."""
    runs = []

    def fake(m=None, tests=mutants.FAST_TESTS):
        runs.append((m and m.name, tuple(tests)))
        if m is None:
            return False, "", 0.0
        if tuple(tests) == mutants.FAST_TESTS:
            return True, first_failure, 0.0
        return catcher_fails, m.catcher if catcher_fails else "", 0.0

    monkeypatch.setattr(mutants, "run_tests", fake)
    return runs


ENTRY = next(m for m in mutants.MUTANTS if m.name == "display_tie")
GOLDEN = "tests/test_golden.py::test_golden_digest"


def test_a_catcher_hidden_by_an_earlier_failure_runs_alone(monkeypatch, capsys):
    runs = _fake_runs(monkeypatch, GOLDEN, catcher_fails=True)
    assert mutants.main([ENTRY.name]) == 0
    assert runs == [(None, mutants.FAST_TESTS), (ENTRY.name, mutants.FAST_TESTS),
                    (ENTRY.name, (ENTRY.catcher,))]
    assert capsys.readouterr().out.startswith("killed ")


def test_a_silent_catcher_fails_the_catalogue(monkeypatch, capsys):
    _fake_runs(monkeypatch, GOLDEN, catcher_fails=False)
    assert ENTRY.must_kill
    assert mutants.main([ENTRY.name]) == 1
    assert capsys.readouterr().out.startswith("catcher silent ")


def test_a_catcher_that_fails_first_is_not_run_again(monkeypatch, capsys):
    for first in (ENTRY.catcher, ENTRY.catcher + "[LC]"):
        runs = _fake_runs(monkeypatch, first, catcher_fails=False)
        assert mutants.main([ENTRY.name]) == 0
        assert len(runs) == 2
        assert capsys.readouterr().out.startswith("killed ")
