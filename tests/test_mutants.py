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
