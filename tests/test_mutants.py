"""scripts/mutants.py's catalogue still names lines of this tree; the
mutants themselves are not run here."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("m", mutants.MUTANTS, ids=lambda m: m.name)
def test_old_line_occurs_once_and_the_mutant_changes_it(m):
    # a refactor that moves or rewrites a mutated line leaves its entry stale:
    # it fails here rather than reading "not applicable" in a later table
    text = (ROOT / "src" / "bovirial" / m.path).read_text(encoding="utf-8")
    assert [line.strip() for line in text.split("\n")].count(m.old) == 1
    assert m.new.strip() != m.old and m.why
    mutated = mutants._mutated(text, m).split("\n")
    changed = [(a, b) for a, b in zip(text.split("\n"), mutated) if a != b]
    assert len(changed) == 1 and changed[0][1].strip() == m.new
