"""The entries of the mutation gate still apply.  The gate itself runs
outside this suite (``python tests/mutation_gate.py``); this only checks
that each entry names text and tests that exist."""

import re

from mutation_gate import MUTANTS, ROOT


def test_every_entry_applies_once_and_names_existing_tests():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert (ROOT / m.file).read_text().count(m.old) == 1, m.name
        assert m.old != m.new and m.tests, m.name
        for test in m.tests:
            path, _, name = test.partition("::")
            text = (ROOT / path).read_text()
            assert not name or re.search(rf"^def {name}\(", text, re.M), test
