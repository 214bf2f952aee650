"""The mutant catalogue in tools/mutants.py stays applicable: every anchor
occurs exactly once in its file, so a refactor that moves code must update
the catalogue in the same change."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _catalogue():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_every_mutant_anchor_occurs_once():
    mutants = _catalogue()
    assert len({m.name for m in mutants}) == len(mutants)
    for m in mutants:
        assert m.anchor != m.replacement, m.name
        assert (ROOT / m.file).read_text().count(m.anchor) == 1, m.name
