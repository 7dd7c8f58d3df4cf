"""The mutant table (tests/mutants.py) stays applicable: every row's old
text occurs exactly once in its file, and every row names a test that
exists or argues that the mutant is equivalent.  Running the mutants is
left to the runner in that file."""

import pytest

from mutants import MUTANTS, REPO


@pytest.mark.parametrize("row", range(len(MUTANTS)))
def test_a_mutant_row_applies_to_one_place(row):
    m = MUTANTS[row]
    assert (REPO / m.path).read_text().count(m.old) == 1, m
    assert m.new != m.old
    assert (m.killer is None) != (m.equivalent is None), m
    if m.killer:
        path, name = m.killer.split("[")[0].split("::")
        assert f"def {name}(" in (REPO / path).read_text(), m.killer
