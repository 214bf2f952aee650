"""The mutant catalogue in tools/mutants.py stays applicable: every anchor
occurs exactly once in its file, so a refactor that moves code must update
the catalogue in the same change, and every mutant's killer is a test the
suite collects, run in both of the catalogue's modes."""

import importlib.util
import subprocess
import sys
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


def test_every_killer_is_a_collected_test():
    killers = {m.killer for m in _catalogue()}
    for killer in killers:
        # --no-hashes deselects `_bytes` tests, and the catalogue's whole-suite
        # runs ignore these two files
        assert "_bytes" not in killer, killer
        assert not killer.startswith(("tests/test_acceptance.py", "tests/test_mutants.py")), killer
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *sorted(killers)],
        cwd=ROOT, capture_output=True, text=True,
    )
    collected = {line for line in proc.stdout.splitlines() if "::" in line}
    assert collected == killers, proc.stdout[-2000:] + proc.stderr[-2000:]
