"""The mutant catalogue in tools/mutants.py still points at real code and tests.

These tests run no mutant: they check that each entry's edit applies at
exactly one place under src/, that each named killer test still exists, so
the catalogue cannot rot silently, and that no entry is a clause ablation of
a _checks, which the generated family in tier-1 covers.  Run the mutants
with `python3 tools/mutants.py`.
"""

import ast
import importlib.util
import re
from pathlib import Path

import pytest

from oracles import checks_tree, clause_ablations

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


def _units_dropped(checks):
    """ast.dump of checks with True dropped from each `and` and False from each
    `or`, so an operand removed and one replaced by its unit dump alike."""
    for op in [node for node in ast.walk(checks) if isinstance(node, ast.BoolOp)]:
        unit = isinstance(op.op, ast.And)
        op.values = [v for v in op.values if not (isinstance(v, ast.Constant) and v.value is unit)]
    return ast.dump(ast.parse(ast.unparse(checks)))


@pytest.mark.parametrize("name", [name for name, mutant in CATALOGUE.items()
                                  if "def _checks(" in (ROOT / mutant.file).read_text()])
def test_no_entry_is_a_clause_ablation(name):
    # the generated family in tests/test_shadows.py and tests/test_topograph.py
    # holds every clause ablation of a _checks, in either spelling
    mutant = CATALOGUE[name]
    source = (ROOT / mutant.file).read_text()
    mutated = _units_dropped(checks_tree(source.replace(mutant.old, mutant.new)))
    assert mutated not in map(_units_dropped, clause_ablations(source).values())
