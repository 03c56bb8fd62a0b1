"""The mutant catalogue in tools/mutants.py still points at real code and tests.

These tests run no mutant: they check that each entry's edit applies at
exactly one place under src/, and that each named killer test still exists,
so the catalogue cannot rot silently.  Run the mutants with
`python3 tools/mutants.py`.
"""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)

CATALOGUE = {m.name: m for m in mutants.CATALOGUE}


def test_names_are_unique():
    assert len(CATALOGUE) == len(mutants.CATALOGUE)


@pytest.mark.parametrize("name", CATALOGUE)
def test_old_text_occurs_once_in_src(name):
    mutant = CATALOGUE[name]
    assert mutant.old != mutant.new
    assert mutant.file.startswith("src/")
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
    assert sum(p.read_text().count(mutant.old) for p in (ROOT / "src").rglob("*.py")) == 1


@pytest.mark.parametrize("name", CATALOGUE)
def test_killers_exist_and_survivors_say_why(name):
    mutant = CATALOGUE[name]
    assert bool(mutant.killers) != bool(mutant.survives)
    for node_id in mutant.killers:
        path, _, test = node_id.partition("::")
        function = re.sub(r"\[.*\]\Z", "", test)
        assert re.search(rf"^def {function}\(", (ROOT / path).read_text(), re.M), node_id
