"""The mutation list of ``mutants.py`` still applies to the package: each
entry's source text occurs exactly once in its file. The mutants
themselves run only from ``mutants.py``, not in tier-1."""
from mutants import MUTANTS, ROOT


def test_each_mutant_source_occurs_once():
    counts = {m.name: (ROOT / m.file).read_text().count(m.source) for m in MUTANTS}
    assert counts == {m.name: 1 for m in MUTANTS}
    assert len(counts) == len(MUTANTS)  # names are distinct
    assert all(m.source != m.replacement for m in MUTANTS)
