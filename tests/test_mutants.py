"""The mutation catalogue still applies to the code it names."""

from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.id for m in MUTANTS])
def test_snippet_occurs_exactly_once(mutant):
    assert mutant.snippet != mutant.replacement
    text = (ROOT / "src" / "simcol" / mutant.file).read_text()
    assert text.count(mutant.snippet) == 1
    for arg in mutant.select:
        assert (ROOT / arg.split("::")[0]).is_file(), arg


def test_catalogue_ids_are_unique():
    assert len({m.id for m in MUTANTS}) == len(MUTANTS)
