"""The mutation harness (`scripts/mutants.py`) against the source as it
stands: every mutant still applies and names tests that exist.  The
harness itself runs the named tests on each mutant; that is not done here."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "mutants.py"
spec = importlib.util.spec_from_file_location("mutants", SCRIPT)
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


def test_every_snippet_occurs_exactly_once_in_the_source():
    for m in mutants.MUTANTS:
        assert mutants.occurrences(m) == 1, m.name
        assert m.replacement != m.snippet, m.name


def test_every_mutant_names_tests_that_exist():
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        assert m.tests, m.name
        for test_id in m.tests:
            path, _, name = test_id.partition("::")
            text = (ROOT / path).read_text(encoding="utf-8")
            assert re.search(rf"^def {name}\(", text, re.M), test_id
