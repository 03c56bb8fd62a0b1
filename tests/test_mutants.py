"""The mutants in tools/mutants.py still point at real code and tests.

These tests run no mutant.  They check that each catalogue entry's edit
applies at exactly one place under src/ and that each named killer test
still exists, so the catalogue cannot rot silently; that no entry is a
mutant a generator makes, an operator mutant of tools/mutants.py or a clause
ablation of a _checks, which tier-1 covers; that each SURVIVORS key names a
mutant still made; that the runner counts a hung pytest call as a kill and
goes on; and that its pytest calls inherit its memory cap.  Run the mutants
with `python3 tools/mutants.py`.
"""

import ast
import importlib.util
import re
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

from oracles import checks_tree, clause_ablations

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)

CATALOGUE = {m.name: m for m in mutants.CATALOGUE}
GENERATED = {m.name: m for m in mutants.generated_family()}


def test_names_are_unique():
    assert len(CATALOGUE) == len(mutants.CATALOGUE)
    assert len(GENERATED | CATALOGUE) == len(GENERATED) + len(CATALOGUE)


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
    assert bool(mutant.killers) != (name in mutants.SURVIVORS)
    for node_id in mutant.killers:
        path, _, test = node_id.partition("::")
        function = re.sub(r"\[.*\]\Z", "", test)
        assert re.search(rf"^def {function}\(", (ROOT / path).read_text(), re.M), node_id


@pytest.mark.parametrize("name", mutants.SURVIVORS)
def test_each_survivor_is_still_made(name):
    assert name in GENERATED or name in CATALOGUE
    assert mutants.SURVIVORS[name]


def test_each_module_has_its_own_test_file():
    # a generated mutant runs its module's test file first
    for path in (ROOT / "src").rglob("*.py"):
        assert (ROOT / mutants.own_tests(path.relative_to(ROOT).as_posix())).is_file(), path


def _units_dropped(checks):
    """ast.dump of checks with True dropped from each `and` and False from each
    `or`, so an operand removed and one replaced by its unit dump alike."""
    for op in [node for node in ast.walk(checks) if isinstance(node, ast.BoolOp)]:
        unit = isinstance(op.op, ast.And)
        op.values = [v for v in op.values if not (isinstance(v, ast.Constant) and v.value is unit)]
    return ast.dump(ast.parse(ast.unparse(checks)))


@cache
def _operator_mutants(file):
    source = (ROOT / file).read_text()
    made = [m for m in GENERATED.values() if m.file == file]
    return {ast.dump(ast.parse(mutants.apply(m, source))) for m in made}


@pytest.mark.parametrize("name", CATALOGUE)
def test_no_entry_is_a_generated_mutant(name):
    # compared as syntax trees, so an entry spelled otherwise is refused too;
    # the clause ablations of a _checks are those tests/test_shadows.py and
    # tests/test_topograph.py generate, in either spelling
    mutant = CATALOGUE[name]
    source = (ROOT / mutant.file).read_text()
    mutated = mutants.apply(mutant, source)
    assert ast.dump(ast.parse(mutated)) not in _operator_mutants(mutant.file)
    if "def _checks(" in source:
        ablations = map(_units_dropped, clause_ablations(source).values())
        assert _units_dropped(checks_tree(mutated)) not in ablations


def test_a_hung_pytest_call_counts_as_a_kill(monkeypatch, capsys):
    def hang(args, **kwargs):
        raise subprocess.TimeoutExpired(args, kwargs["timeout"])

    monkeypatch.setattr(mutants.subprocess, "run", hang)
    chosen = [next(iter(GENERATED)), next(iter(CATALOGUE))]
    assert mutants.main(chosen) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.rsplit(" (", 1)[0] for line in lines[:2]] == [
        f"ok         {name}: killed by timeout after 900 s" for name in chosen
    ]
    assert lines[2:] == ["2 mutants, 0 unexpected"]


_CAPPED = """
import importlib.util, subprocess, sys
spec = importlib.util.spec_from_file_location("mutants", sys.argv[1])
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)
mutants.cap_memory()
limit = "import resource; print(resource.getrlimit(resource.RLIMIT_AS)[0])"
sys.exit(subprocess.run([sys.executable, "-c", limit]).returncode)
"""


def test_pytest_calls_inherit_the_runners_memory_cap():
    # the cap is set in a child process, so this test's own process keeps its limit
    capped = subprocess.run([sys.executable, "-c", _CAPPED, str(ROOT / "tools" / "mutants.py")],
                            capture_output=True, text=True, timeout=60)
    assert capped.stdout.split() == [str(mutants._MEMORY_CAP)], capped.stderr
