"""The mutation check's list stays in step with the source.

``tools/mutants.py`` runs tests once per mutant, which is too slow for
Tier-1 itself; this only checks that every mutant's target string occurs
exactly once in its file, so a source edit cannot silently leave a mutant
that changes nothing.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"


def test_every_mutant_target_occurs_exactly_once():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.MUTANTS
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    assert mutants.stale() == []
